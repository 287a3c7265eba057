"""Isotope assignments over symmetry-equivalent site groups.

Enumeration is count-level: sites inside a symmetry group are physically
equivalent, so only how many of each isotope occupy the group matters and
the multinomial factor absorbs the collapsed site assignments. Hyperfine
tensors scale linearly with the nuclear g-factor when one isotope replaces
another of the same element.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .isotopes import isotopes_of, lookup
from .solvers import (
    LineList,
    MODE_FULL,
    _compositions,
    _multinomial,
    perturb_lines,
)
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
        parts = []
        for _, group in self.counts:
            for symbol, count in group:
                if count:
                    parts.append(f"{count}x{symbol}")
        return "+".join(parts) if parts else "reference"


def _group_probability(counts, abundances) -> float:
    p = float(_multinomial(counts))
    for c, a in zip(counts, abundances):
        p *= a**c
    return p


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
    sizes: dict[tuple[str, str], int] = {}        # (group_id, element) -> size
    for site, _ in system.sites:
        if site.element in variable:
            key = (site.group_id, site.element)
            sizes[key] = sizes.get(key, 0) + 1

    patterns = [IsotopePattern(counts=(), probability=1.0)]
    for (gid, element), size in sizes.items():
        isos = isotopes_of(element)
        options = [
            (
                tuple((iso.symbol, c) for iso, c in zip(isos, counts)),
                _group_probability(counts, [i.abundance for i in isos]),
            )
            for counts in _compositions(size, len(isos))
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


def apply_pattern(system: SpinSystem, pattern: IsotopePattern) -> SpinSystem:
    """Concrete spin system for one pattern.

    Within each group, sites are reassigned in declared order: the first
    ``count`` sites take the first listed isotope and so on. With
    equivalent sites any ordering gives the same line statistics.
    """
    # Keyed like enumerate_patterns' groups: sites of another element that
    # share a group id (or all carry the default "") keep their isotopes.
    assignment: dict[tuple[str, str], list[str]] = {}
    for gid, counts in pattern.counts:
        element = lookup(counts[0][0]).element
        assignment[(gid, element)] = [s for s, count in counts for _ in range(count)]
    sizes = Counter((site.group_id, site.element) for site, _ in system.sites)
    for (gid, element), symbols in assignment.items():
        if len(symbols) != sizes[gid, element]:
            raise ValueError(
                f"pattern counts for group {gid} sum to {len(symbols)}, "
                f"but it has {sizes[gid, element]} {element} sites"
            )
    pending = {key: iter(symbols) for key, symbols in assignment.items()}
    new_sites = []
    for site, iso in system.sites:
        key = (site.group_id, site.element)
        if key in pending:
            symbol = next(pending[key])
            if symbol != iso.symbol:
                new_iso = lookup(symbol)
                site = site._with_principal_values(
                    rescale_hyperfine(site.principal_values, iso, new_iso)
                )
                iso = new_iso
        new_sites.append((site, iso))
    label = f"{system.label}[{pattern.describe()}]"
    return SpinSystem(label, tuple(new_sites), system.g_tensor)


def composite_lines(
    system: SpinSystem,
    patterns,
    field,
    order: int = 2,
    mode: str = MODE_FULL,
) -> LineList:
    """Abundance-weighted merge of per-pattern line lists.

    Each pattern is solved by ``perturb_lines`` with ``order`` and ``mode``:
    one line per count-level class, weighted by the class probability times
    the pattern probability, concatenated in pattern order (not sorted). A
    pattern past ``ENUMERATION_THRESHOLD`` classes raises ``ValueError``.
    """
    patterns = list(patterns)
    total_p = sum(p.probability for p in patterns)
    if abs(total_p - 1.0) > 1e-9:
        raise ValueError(f"pattern probabilities sum to {total_p}, expected 1")
    solved = [
        perturb_lines(apply_pattern(system, p), field, order, mode) for p in patterns
    ]
    return LineList(
        method="composite",
        field=field,
        frequencies=np.concatenate([s.frequencies for s in solved]),
        intensities=np.concatenate([s.intensities for s in solved]),
        weights=np.concatenate(
            [s.weights * p.probability for s, p in zip(solved, patterns)]
        ),
        meta={"patterns_solved": len(solved), "order": order, "mode": mode},
    )
