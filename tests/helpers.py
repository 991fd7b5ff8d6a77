"""Reference helpers the tests share; no pipeline stage or CLI command uses them."""

from fractions import Fraction
from typing import Sequence

from orbit_betti.compositions import Composition
from orbit_betti.fibres import FibreError
from orbit_betti.polys import BlockSpec, Polynomial, PolynomialError, RationalLike, as_rational
from orbit_betti.powersums import PowerSumForm, power_sum_polynomial


def power_sum_vector(x: Sequence[RationalLike], m_max: int) -> tuple[Fraction, ...]:
    """Exact (p_1, ..., p_{m_max}) of a rational point (weights all 1)."""
    xs = [as_rational(v) for v in x]
    return tuple(sum((v**m for v in xs), Fraction(0)) for m in range(1, m_max + 1))


def weighted_power_sum(lam: Composition, m: int, t: Sequence):
    """Σ_i λ_i t_i^m with t in the composition's own group order (descending);
    exact when the parameters are rational."""
    parts = lam.parts
    if len(t) != len(parts):
        raise FibreError(f"expected {len(parts)} parameters, got {len(t)}")
    if m < 1:
        raise FibreError("power index must be a positive integer")
    if all(isinstance(v, (int, Fraction)) for v in t):
        return sum((w * as_rational(v) ** m for w, v in zip(parts, t)), Fraction(0))
    return float(sum(w * float(v) ** m for w, v in zip(parts, t)))


def cell_dim(cell: tuple[int, ...]) -> int:
    """The dimension of a cell in doubled coordinates: its count of odd codes."""
    return sum(code & 1 for code in cell)


def expand_power_sum_form(form: PowerSumForm, blocks: BlockSpec) -> Polynomial:
    """Substitute p_{i,m} back and expand in the x-variables: the inverse of
    ``power_sum_rewrite``."""
    if form.block_arities != blocks.d_primes:
        raise PolynomialError("form arities do not match the block spec")
    images = [
        power_sum_polynomial(blocks, i, m)
        for i, a in enumerate(form.block_arities)
        for m in range(1, a + 1)
    ]
    if not images:
        raise PolynomialError("empty power-sum coordinate list")
    return form.poly.substitute(images)
