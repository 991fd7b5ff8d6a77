"""Compositions of k, the chamber-face order, chains, and chain-count bounds.

A composition λ = (λ_1, ..., λ_ℓ) of k is stored as its breakpoint set
B(λ) = {λ_1, λ_1+λ_2, ...} ⊆ {1, ..., k−1}.  Under that encoding the face
order (λ ≺ μ iff the face of the ordered chamber labelled λ is contained in
the closure of the one labelled μ) is plain set inclusion, the meet is set
intersection, and downward closure is subset enumeration — so this module is
mostly finite set combinatorics.

Chain counts carry two numbers side by side: the exact count (enumeration
and an independent dynamic program must agree) and a closed-form bound
F(d, k) quoted from the literature.  The two disagree on some inputs —
for instance the poset for k=5, d=3 has 11 chains against a quoted bound
of 7 — so the exact count is authoritative and the report merely flags
when the formula is exceeded rather than asserting it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb, factorial

# Both limits are checked before the work they bound: the most compositions
# a poset may hold (the chain-count dynamic program visits every comparable
# pair, 3^12 of them for the whole of Comp(13)), and the most chains listed
# one by one, each held in memory.
POSET_LIMIT = 2**12
ENUMERATION_LIMIT = 2**16


class CompositionError(ValueError):
    pass


@dataclass(frozen=True)
class Composition:
    """A composition of k, canonically the breakpoint set B(λ) ⊆ {1..k−1}."""

    k: int
    breakpoints: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "breakpoints", frozenset(int(b) for b in self.breakpoints))
        if self.k < 1:
            raise CompositionError("k must be a positive integer")
        for b in self.breakpoints:
            if not 1 <= b <= self.k - 1:
                raise CompositionError(f"breakpoint {b} out of range 1..{self.k - 1}")

    @staticmethod
    def from_parts(parts: tuple[int, ...] | list[int]) -> "Composition":
        parts = tuple(int(p) for p in parts)
        if not parts:
            raise CompositionError("a composition needs at least one part")
        if any(p < 1 for p in parts):
            raise CompositionError(f"nonpositive part in {parts}")
        k = sum(parts)
        partial = 0
        breaks = []
        for p in parts[:-1]:
            partial += p
            breaks.append(partial)
        return Composition(k, frozenset(breaks))

    @functools.cached_property
    def parts(self) -> tuple[int, ...]:
        cuts = [0] + sorted(self.breakpoints) + [self.k]
        return tuple(b - a for a, b in zip(cuts, cuts[1:]))

    @property
    def length(self) -> int:
        return len(self.breakpoints) + 1

    def sort_key(self) -> tuple:
        return (self.length, self.parts)

    def __repr__(self) -> str:
        return f"Composition{self.parts}"


def precedes(lam: Composition, mu: Composition) -> bool:
    """λ ≺ μ in the face order (reflexive): breakpoints nest."""
    if lam.k != mu.k:
        raise CompositionError(f"k mismatch: {lam.k} vs {mu.k}")
    return lam.breakpoints <= mu.breakpoints


@dataclass(frozen=True)
class Chain:
    """A strictly increasing sequence of compositions over a common k."""

    elements: tuple[Composition, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise CompositionError("chains are nonempty")
        k = self.elements[0].k
        for a, b in zip(self.elements, self.elements[1:]):
            if a.k != k or b.k != k:
                raise CompositionError("chain elements over different k")
            if not (precedes(a, b) and a != b):
                raise CompositionError(
                    f"chain elements {a.parts} and {b.parts} do not strictly nest"
                )

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return " < ".join(str(c.parts) for c in self.elements)


# ---------------------------------------------------------------------------
# the posets
# ---------------------------------------------------------------------------


def _check_poset_size(size: int) -> None:
    if size > POSET_LIMIT:
        raise CompositionError(
            f"poset of {size} or more compositions exceeds the limit {POSET_LIMIT}"
        )


def comp_max(k: int, d: int) -> list[Composition]:
    """Compositions of k of length exactly d with 1's at odd positions.

    Positions 1, 3, 5, ... (1-based) are forced to 1; the even positions are
    free positive integers.  d = 1 is the conventional degenerate case {(k)}.
    Sorted by parts for determinism.
    """
    if not 1 <= d <= k:
        raise CompositionError(f"comp_max needs 1 <= d <= k, got d={d}, k={k}")
    if d == 1:
        return [Composition.from_parts((k,))]
    forced = [i for i in range(1, d + 1) if i % 2 == 1]
    free = [i for i in range(1, d + 1) if i % 2 == 0]
    budget = k - len(forced)
    # stars and bars: len(free) positive parts summing to budget
    _check_poset_size(comb(budget - 1, len(free) - 1))
    out: list[Composition] = []

    def rec(pos: int, remaining: int, values: dict[int, int]) -> None:
        if pos == len(free):
            if remaining == 0:
                parts = tuple(1 if i % 2 == 1 else values[i] for i in range(1, d + 1))
                out.append(Composition.from_parts(parts))
            return
        slots_left = len(free) - pos - 1
        for v in range(1, remaining - slots_left + 1):
            values[free[pos]] = v
            rec(pos + 1, remaining - v, values)

    rec(0, budget, {})
    out.sort(key=Composition.sort_key)
    return out


@functools.lru_cache(maxsize=64)
def comp_kd(k: int, d: int) -> tuple[Composition, ...]:
    """The face poset used at degree d: the downward closure of
    comp_max(k, d') under ≺, d' = min(k, d), by subset enumeration on
    breakpoints.  comp_max(k, k) is (1, ..., 1), so for d ≥ k this is all of
    Comp(k).  Sorted by (length, parts), and cached: every call with the same
    (k, d) returns the same tuple.  More than POSET_LIMIT elements raise
    CompositionError, on every call.
    """
    if k < 1 or d < 1:
        raise CompositionError("k and d must be positive")
    seen: set[frozenset[int]] = set()
    for top in comp_max(k, min(k, d)):
        points = sorted(top.breakpoints)
        _check_poset_size(2 ** len(points))
        for mask in range(2 ** len(points)):
            seen.add(frozenset(p for i, p in enumerate(points) if mask >> i & 1))
        _check_poset_size(len(seen))
    return tuple(sorted((Composition(k, b) for b in seen), key=Composition.sort_key))


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def chain_count(k: int, d: int) -> int:
    """Exact number of nonempty chains in comp_kd(k, d), by dynamic program.

    f(λ) = 1 + Σ_{μ strictly below λ} f(μ), summed over the poset.  The
    poset is downward closed, so the μ below λ are exactly the proper
    subsets of its breakpoint set, enumerated as submasks.
    """
    f: dict[int, int] = {}
    # comp_kd lists shorter compositions first: every proper subset is done
    for lam in comp_kd(k, d):
        mask = sum(1 << b for b in lam.breakpoints)
        total = 1
        sub = mask
        while sub:
            sub = (sub - 1) & mask
            total += f[sub]
        f[mask] = total
    return sum(f.values())


def chains(k: int, d: int) -> tuple[list[Chain], int]:
    """All nonempty chains plus the independently computed exact count.

    The dynamic-program count comes first, and more than ENUMERATION_LIMIT
    chains are refused.  Enumeration is depth-first over strictly nesting
    breakpoint sets; its length must agree with the count (asserted here,
    so any drift between the two implementations fails loudly).
    """
    count = chain_count(k, d)
    if count > ENUMERATION_LIMIT:
        raise CompositionError(
            f"{count} chains exceed the enumeration limit {ENUMERATION_LIMIT}"
        )
    elements = comp_kd(k, d)
    above: dict[Composition, list[Composition]] = {
        lam: [mu for mu in elements if lam.breakpoints < mu.breakpoints]
        for lam in elements
    }
    out: list[Chain] = []

    def extend(prefix: list[Composition]) -> None:
        out.append(Chain(tuple(prefix)))
        for mu in above[prefix[-1]]:
            prefix.append(mu)
            extend(prefix)
            prefix.pop()

    for lam in elements:
        extend([lam])

    if count != len(out):  # pragma: no cover - cross-check of two algorithms
        raise AssertionError(
            f"chain DP count {count} disagrees with enumeration {len(out)}"
        )
    return out, count


def paper_chain_bound(k: int, d: int) -> int:
    """The closed-form chain bound F(d, k); informational, not asserted.

    F(d, k) = (2^d − 1) · ∏_{i=1}^{⌊d/2⌋−1} (k − ⌈d/2⌉ − i) for d ≤ k, with
    the empty product equal to 1, and (2^k − 1) (k−1)! for d > k.
    """
    if k < 1 or d < 1:
        raise CompositionError("k and d must be positive")
    if d > k:
        return (2**k - 1) * factorial(k - 1)
    return (2**d - 1) * paper_maximal_chain_formula(k, d)


def paper_maximal_chain_formula(k: int, d: int) -> int:
    """The product ∏_{i=1}^{⌊d/2⌋−1}(k − ⌈d/2⌉ − i), quoted as a maximal-chain
    count; informational (it disagrees with enumeration for some odd d)."""
    if k < 1 or d < 1:
        raise CompositionError("k and d must be positive")
    product = 1
    for i in range(1, d // 2):
        product *= k - (d + 1) // 2 - i
    return product


def chain_report(k: int, d: int) -> dict:
    """Exact counts next to the closed-form numbers, with discrepancy flags.

    ``bound_exceeded`` / ``maximal_formula_mismatch`` are True on the inputs
    where the quoted formulas fall short of the exact counts; consumers
    should treat the exact values as authoritative.

    comp_kd(k, d) is downward closed with maximal elements comp_max(k, d'),
    d' = min(k, d), so a maximal chain starts at (k), adds one breakpoint
    per step and ends in comp_max(k, d'): it is a top together with an order
    on its d' − 1 breakpoints, and there are |comp_max(k, d')| · (d' − 1)!.
    """
    exact = chain_count(k, d)
    bound = paper_chain_bound(k, d)
    top_dim = min(k, d)
    maximal = len(comp_max(k, top_dim)) * factorial(top_dim - 1)
    formula = paper_maximal_chain_formula(k, d)
    return {
        "k": k,
        "d": d,
        "poset_size": len(comp_kd(k, d)),
        "chain_count": exact,
        "paper_chain_bound": bound,
        "bound_exceeded": exact > bound,
        "paper_maximal_chain_formula": formula,
        "maximal_chain_count": maximal,
        "maximal_formula_mismatch": maximal != formula,
    }
