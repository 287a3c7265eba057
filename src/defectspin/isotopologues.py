"""Isotope assignments over symmetry-equivalent site groups.

Enumeration is count-level: sites inside a symmetry group are physically
equivalent, so only how many of each isotope occupy the group matters and
the multinomial factor absorbs the collapsed site assignments. Hyperfine
tensors scale linearly with the nuclear g-factor when one isotope replaces
another of the same element. ``apply_pattern`` keeps each system it makes,
keyed by the source system object and the pattern's counts, until the
source system is garbage-collected.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .isotopes import isotopes_of, lookup
from .solvers import MODE_FULL, LineList, ShiftDistribution, _compositions, _multinomial
from .system import SpinSystem

GroupCounts = tuple[tuple[str, int], ...]       # ((isotope symbol, count), ...)


@dataclass(frozen=True)
class IsotopePattern:
    """Counts of each isotope per symmetry group, with its probability."""

    counts: tuple[tuple[str, GroupCounts], ...]  # ((group_id, counts), ...)
    probability: float

    def count_of(self, symbol: str) -> int:
        """Total sites carrying ``symbol`` across all groups."""
        return sum(
            c for _, group in self.counts for s, c in group if s == symbol
        )

    def describe(self) -> str:
        parts = [f"{c}x{symbol}" for _, group in self.counts for symbol, c in group if c]
        return "+".join(parts) or "reference"


def _group_probability(counts, abundances) -> float:
    return math.prod((a**c for c, a in zip(counts, abundances)),
                     start=float(_multinomial(counts)))


def _groups(system: SpinSystem, elements) -> dict[tuple[str, str], list[int]]:
    """(group id, element) -> indices of that group's sites, in site order,
    for the sites of ``elements``. Sites of another element that share a
    group id (or all carry the default "") form groups of their own."""
    groups: dict[tuple[str, str], list[int]] = {}
    for k, (site, _) in enumerate(system.sites):
        if site.element in elements:
            groups.setdefault((site.group_id, site.element), []).append(k)
    return groups


def enumerate_patterns(
    system: SpinSystem, variable_elements=("B",)
) -> list[IsotopePattern]:
    """Exhaustive count-level patterns for the variable elements.

    Groups of other elements keep their assigned isotopes and do not
    appear in the patterns. Probabilities multiply across groups and sum
    to one over the enumeration.
    """
    variable = tuple(variable_elements)
    for element in variable:
        isotopes_of(element)                       # raises if unknown
    patterns = [IsotopePattern(counts=(), probability=1.0)]
    for (gid, element), sites in _groups(system, variable).items():
        isos = isotopes_of(element)
        options = [
            (
                tuple((iso.symbol, c) for iso, c in zip(isos, counts)),
                _group_probability(counts, [i.abundance for i in isos]),
            )
            for counts in _compositions(len(sites), len(isos))
        ]
        patterns = [
            IsotopePattern(
                counts=base.counts + ((gid, counts),),
                probability=base.probability * p,
            )
            for base in patterns
            for counts, p in options
        ]
    return patterns


def rescale_hyperfine(a, from_isotope, to_isotope):
    """Scale a hyperfine tensor by the ratio of nuclear g-factors.

    Works on principal-value triples and full 3x3 tensors alike. Both
    isotopes must belong to the same element, and the source must have a
    nonzero g-factor. A product that overflows comes back as inf without a
    numpy warning; ``apply_pattern`` rejects it with a ``ValueError``.
    """
    src = from_isotope if not isinstance(from_isotope, str) else lookup(from_isotope)
    dst = to_isotope if not isinstance(to_isotope, str) else lookup(to_isotope)
    if src.element != dst.element:
        raise ValueError(
            f"cannot rescale across elements ({src.symbol} -> {dst.symbol})"
        )
    if src.g_n == 0.0:
        raise ValueError(f"{src.symbol} carries no hyperfine coupling to rescale")
    with np.errstate(over="ignore"):
        return np.asarray(a, dtype=float) * (dst.g_n / src.g_n)


# Keyed by the system object, then by the pattern's counts, which alone
# decide the result; an entry goes with its system.
_APPLIED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def apply_pattern(system: SpinSystem, pattern: IsotopePattern) -> SpinSystem:
    """Concrete spin system for one pattern.

    Within each group, sites are reassigned in declared order: the first
    ``count`` sites take the first listed isotope and so on. With
    equivalent sites any ordering gives the same line statistics. The
    system is frozen and shared: equal counts on the same system give the
    same object.
    """
    applied = _APPLIED.setdefault(system, {})
    concrete = applied.get(pattern.counts)
    if concrete is not None:
        return concrete
    new_sites = list(system.sites)
    for gid, counts in pattern.counts:
        element = lookup(counts[0][0]).element
        indices = _groups(system, (element,)).get((gid, element), [])
        symbols = [s for s, count in counts for _ in range(count)]
        if len(symbols) != len(indices):
            raise ValueError(
                f"pattern counts for group {gid} sum to {len(symbols)}, "
                f"but it has {len(indices)} {element} sites"
            )
        for k, symbol in zip(indices, symbols):
            site, iso = system.sites[k]
            if symbol != iso.symbol:
                new_iso = lookup(symbol)
                values = rescale_hyperfine(site.principal_values, iso, new_iso)
                new_sites[k] = (site._with_principal_values(values), new_iso)
    label = f"{system.label}[{pattern.describe()}]"
    concrete = applied[pattern.counts] = SpinSystem(label, tuple(new_sites), system.g_tensor)
    return concrete


def composite_lines(
    system: SpinSystem,
    patterns,
    field,
    order: int = 2,
    mode: str = MODE_FULL,
) -> LineList:
    """Abundance-weighted merge of per-pattern line lists.

    Each pattern's applied system is one part of a ``ShiftDistribution``
    with ``order`` and ``mode``: one line per count-level class, weighted by
    the class probability times the pattern probability, concatenated in
    pattern order (not sorted). A pattern past ``ENUMERATION_THRESHOLD``
    classes raises ``ValueError``.
    """
    patterns = list(patterns)
    total_p = sum(p.probability for p in patterns)
    if abs(total_p - 1.0) > 1e-9:
        raise ValueError(f"pattern probabilities sum to {total_p}, expected 1")
    parts = ((apply_pattern(system, p), p.probability) for p in patterns)
    return LineList(
        "composite", field, *ShiftDistribution(parts, field, order, mode).lines(),
        meta={"patterns_solved": len(patterns), "order": order, "mode": mode},
    )
