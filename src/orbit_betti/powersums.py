"""Symmetry detection and rewriting into power-sum coordinates.

A polynomial that is invariant under permuting the variables inside each
block, and whose degree in block i is at most the cap d_i, is a polynomial in
the Newton power sums

    p_{i,m} = sum of x_j^m over the variables of block i,   m = 1..min(k_i, d_i).

The rewrite here is exact and works by linear algebra: enumerate the monomials
in the admissible power sums up to the observed block degrees D_i, expand each
one back into x-monomials in the first min(k_i, D_i) variables of each block,
and solve the (consistent, full-column-rank) linear system over the rationals
by the sparse elimination of ``polys``.  Power sums of index up to
min(k_i, d_i) are algebraically independent, so the answer is unique — no
normal-form or straightening step is needed — and the cost of the solve does
not grow with k_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from orbit_betti.polys import (
    BlockSpec,
    ClosedFormula,
    Polynomial,
    PolynomialError,
    SignAtom,
    multidegree,
    solve_columns,
)


class SymmetryError(ValueError):
    """Raised when a polynomial fails the block-symmetry or degree contract."""


@dataclass(frozen=True)
class PowerSumForm:
    """A polynomial rewritten in power-sum coordinates.

    ``block_arities[i]`` is the number of power sums taken from block i
    (that is min(k_i, d_i)); ``poly`` lives in sum(block_arities) variables
    ordered block-major: p_{1,1}, ..., p_{1,a_1}, p_{2,1}, ...
    """

    block_arities: tuple[int, ...]
    poly: Polynomial

    def __post_init__(self) -> None:
        if sum(self.block_arities) != self.poly.var_count:
            raise PolynomialError(
                "power-sum polynomial variable count does not match block arities"
            )


# ---------------------------------------------------------------------------
# symmetry check
# ---------------------------------------------------------------------------


def _swap_exponents(expo: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    lst = list(expo)
    lst[i], lst[j] = lst[j], lst[i]
    return tuple(lst)


def check_symmetric(p: Polynomial, blocks: BlockSpec) -> bool:
    """Is ``p`` invariant under permutations within each block?

    Adjacent transpositions generate each symmetric factor, so invariance
    under those suffices.  The check is exact and term-wise.
    """
    if blocks.total_vars != p.var_count:
        raise PolynomialError(
            f"blocks cover {blocks.total_vars} variables, polynomial has {p.var_count}"
        )
    for b in range(blocks.omega):
        variables = blocks.block_variables(b)
        for u, v in zip(variables, variables[1:]):
            i, j = u - 1, v - 1
            for expo, coeff in p.terms.items():
                if p.terms.get(_swap_exponents(expo, i, j), Fraction(0)) != coeff:
                    return False
    return True


# ---------------------------------------------------------------------------
# rewrite
# ---------------------------------------------------------------------------


def power_sum_polynomial(blocks: BlockSpec, block_index: int, m: int) -> Polynomial:
    """p_{block,m} = sum of x_j^m over block ``block_index`` (0-based block)."""
    k = blocks.total_vars
    terms: dict[tuple[int, ...], Fraction] = {}
    for v in blocks.block_variables(block_index):
        expo = tuple(m if i == v - 1 else 0 for i in range(k))
        terms[expo] = Fraction(1)
    return Polynomial(k, terms)


def _weighted_monomials(arity: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors a for p_1^{a_1}..p_arity^{a_arity} with sum m*a_m <= degree."""
    out: list[tuple[int, ...]] = []

    def rec(position: int, remaining: int, prefix: tuple[int, ...]) -> None:
        if position > arity:
            out.append(prefix)
            return
        for a in range(remaining // position + 1):
            rec(position + 1, remaining - position * a, prefix + (a,))

    rec(1, degree, ())
    return out


def power_sum_rewrite(p: Polynomial, blocks: BlockSpec) -> PowerSumForm:
    """Express a block-symmetric polynomial in power-sum coordinates.

    Raises :class:`SymmetryError` when ``p`` is not block-symmetric or when
    its degree in some block exceeds that block's cap.
    """
    if blocks.total_vars != p.var_count:
        raise PolynomialError(
            f"blocks cover {blocks.total_vars} variables, polynomial has {p.var_count}"
        )
    degrees = multidegree(p, blocks)
    for i, (deg, cap) in enumerate(zip(degrees, blocks.degree_caps)):
        if deg > cap:
            raise SymmetryError(
                f"degree {deg} in block {i + 1} exceeds the cap {cap}"
            )
    if not check_symmetric(p, blocks):
        raise SymmetryError("polynomial is not symmetric under the block action")

    # Solve in the first r_i = min(k_i, D_i) variables of each block (D_i the
    # block degree, one variable at least).  A block-symmetric polynomial is
    # fixed by its terms there, as every monomial orbit of degree ≤ D_i meets
    # them, and the power-sum monomials of weighted degree ≤ D_i use p_m with
    # m ≤ r_i only, which stay algebraically independent in r_i variables.
    arities = blocks.d_primes
    sizes = [min(k, max(deg, 1)) for k, deg in zip(blocks.block_sizes, degrees)]
    ring = BlockSpec(tuple(sizes), blocks.degree_caps)
    kept = [v - 1 for b, r in enumerate(sizes) for v in blocks.block_variables(b)[:r]]
    target = {
        tuple(expo[i] for i in kept): c
        for expo, c in p.terms.items()
        if sum(expo[i] for i in kept) == sum(expo)
    }
    basis = [power_sum_polynomial(ring, b, m) for b, a in enumerate(arities) for m in range(1, a + 1)]
    # the admissible power-sum monomials as exponent vectors, block-major
    monomials = [sum(combo, ()) for combo in product(*(
        _weighted_monomials(a, deg) for a, deg in zip(arities, degrees)
    ))]
    columns = [Polynomial(len(basis), {e: 1}).substitute(basis).terms for e in monomials]
    solution = solve_columns(columns, target)
    if solution is None:  # pragma: no cover - guarded by check_symmetric
        raise SymmetryError("polynomial is not in the power-sum span")
    terms = {e: c for e, c in zip(monomials, solution) if c}
    return PowerSumForm(arities, Polynomial(len(basis), terms))


def rewrite_formula(f: ClosedFormula, blocks: BlockSpec) -> ClosedFormula:
    """Rewrite every atom of a block-symmetric formula into power sums.

    The AND/OR structure is preserved; the result is a closed formula over
    sum(min(k_i, d_i)) variables, ordered block-major.
    """
    if blocks.total_vars != f.k:
        raise PolynomialError(
            f"blocks cover {blocks.total_vars} variables, formula has k={f.k}"
        )
    n_y = sum(blocks.d_primes)

    def rewrite_atom(atom: SignAtom) -> SignAtom:
        form = power_sum_rewrite(atom.poly, blocks)
        return SignAtom(form.poly, atom.relation)

    return f.map_atoms(rewrite_atom, new_k=n_y)
