"""Symmetry check and power-sum rewriting.

The main oracle is the round trip: draw a random polynomial q in power-sum
coordinates, expand it into the x-variables by substituting the actual power
sums, and check the rewrite recovers q exactly.  Hand-computed classics
(elementary symmetric e2, the sphere) pin the coordinate conventions.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orbit_betti.polys import (
    BlockSpec,
    Polynomial,
    PolynomialError,
    evaluate_formula,
    evaluate_polynomial,
    parse_formula,
    parse_polynomial,
)
from orbit_betti.powersums import (
    PowerSumForm,
    SymmetryError,
    check_symmetric,
    power_sum_polynomial,
    power_sum_rewrite,
    rewrite_formula,
)

from helpers import expand_power_sum_form

# ---------------------------------------------------------------------------
# symmetry check
# ---------------------------------------------------------------------------


def test_check_symmetric_basics():
    blocks3 = BlockSpec.single(3, 2)
    e2 = parse_polynomial("x1*x2 + x1*x3 + x2*x3", 3)
    assert check_symmetric(e2, blocks3)
    assert not check_symmetric(parse_polynomial("x1 - x2", 3), blocks3)
    assert check_symmetric(parse_polynomial("5", 3), blocks3)


def test_check_symmetric_respects_blocks():
    p = parse_polynomial("x1 + x2 + 2*x3", 3)
    assert check_symmetric(p, BlockSpec((2, 1), (1, 1)))
    assert not check_symmetric(p, BlockSpec.single(3, 1))


def test_check_symmetric_dimension_mismatch():
    with pytest.raises(PolynomialError):
        check_symmetric(parse_polynomial("x1", 1), BlockSpec.single(2, 1))


# ---------------------------------------------------------------------------
# rewrite: pinned classics
# ---------------------------------------------------------------------------


def test_sum_of_squares_is_second_power_sum():
    p = parse_polynomial("x1^2 + x2^2 + x3^2", 3)
    form = power_sum_rewrite(p, BlockSpec.single(3, 2))
    assert form.block_arities == (2,)
    # coordinates are (p1, p2); the answer is exactly the second one
    assert form.poly == Polynomial.variable(2, 2)


def test_elementary_e2_in_power_sums():
    # e2 = (p1^2 - p2) / 2, the Newton identity for two letters
    e2 = parse_polynomial("x1*x2 + x1*x3 + x2*x3", 3)
    form = power_sum_rewrite(e2, BlockSpec.single(3, 2))
    assert form.poly == parse_polynomial("1/2*x1^2 - 1/2*x2", 2)


def test_rewrite_constant():
    form = power_sum_rewrite(Polynomial.constant(Fraction(7, 3), 4), BlockSpec.single(4, 2))
    assert form.poly == Polynomial.constant(Fraction(7, 3), 2)


def test_power_sum_beyond_variable_count_reduces():
    # k = 2, cap d = 3: p3 = x1^3 + x2^3 must come out in terms of p1, p2
    # (arity min(2,3) = 2).  Newton: p3 = p1^3 - 3 p1 e2 + 3 e3 with e3 = 0,
    # e2 = (p1^2 - p2)/2, so p3 = p1^3 - 3/2 p1^3 + 3/2 p1 p2
    #                           = -1/2 p1^3 + 3/2 p1 p2.
    p3 = parse_polynomial("x1^3 + x2^3", 2)
    form = power_sum_rewrite(p3, BlockSpec.single(2, 3))
    assert form.block_arities == (2,)
    assert form.poly == parse_polynomial("-1/2*x1^3 + 3/2*x1*x2", 2)
    # sanity at a point: x = (1, 2): p3 = 9, p1 = 3, p2 = 5
    assert evaluate_polynomial(form.poly, (3, 5)) == 9


def test_multi_block_rewrite():
    # blocks (2, 2), caps (2, 1): q = (x1^2 + x2^2) + 3 (x3 + x4)
    # coordinates: y1 = p_{1,1}, y2 = p_{1,2}, y3 = p_{2,1}
    p = parse_polynomial("x1^2 + x2^2 + 3*x3 + 3*x4", 4)
    form = power_sum_rewrite(p, BlockSpec((2, 2), (2, 1)))
    assert form.block_arities == (2, 1)
    assert form.poly == parse_polynomial("x2 + 3*x3", 3)


def test_rewrite_rejects_asymmetric():
    with pytest.raises(SymmetryError):
        power_sum_rewrite(parse_polynomial("x1", 2), BlockSpec.single(2, 1))


def test_rewrite_rejects_degree_overflow():
    p = parse_polynomial("x1^3 + x2^3 + x3^3", 3)
    with pytest.raises(SymmetryError):
        power_sum_rewrite(p, BlockSpec.single(3, 2))


# ---------------------------------------------------------------------------
# rewrite: round-trip oracle
# ---------------------------------------------------------------------------

small_fractions = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=5
)


@st.composite
def power_sum_polys(draw, arities, caps):
    """Random polynomial in y-space whose weighted degree respects the caps."""
    n = sum(arities)
    weights = []
    for a in arities:
        weights.extend(range(1, a + 1))
    per_block = []
    offset = 0
    for a, cap in zip(arities, caps):
        per_block.append((offset, a, cap))
        offset += a
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        expo = [0] * n
        for off, a, cap in per_block:
            budget = cap
            for m in range(1, a + 1):
                e = draw(st.integers(min_value=0, max_value=budget // m))
                expo[off + m - 1] = e
                budget -= m * e
        terms[tuple(expo)] = draw(small_fractions)
    return Polynomial(n, terms)


@given(st.data())
def test_round_trip_single_block(data):
    k = data.draw(st.integers(min_value=1, max_value=4))
    d = data.draw(st.integers(min_value=1, max_value=3))
    blocks = BlockSpec.single(k, d)
    q = data.draw(power_sum_polys(blocks.d_primes, blocks.degree_caps))
    expanded = expand_power_sum_form(PowerSumForm(blocks.d_primes, q), blocks)
    assert check_symmetric(expanded, blocks)
    form = power_sum_rewrite(expanded, blocks)
    assert form.poly == q


@given(st.data())
def test_round_trip_two_blocks(data):
    k1 = data.draw(st.integers(min_value=1, max_value=3))
    k2 = data.draw(st.integers(min_value=1, max_value=2))
    d1 = data.draw(st.integers(min_value=1, max_value=2))
    d2 = data.draw(st.integers(min_value=1, max_value=2))
    blocks = BlockSpec((k1, k2), (d1, d2))
    q = data.draw(power_sum_polys(blocks.d_primes, blocks.degree_caps))
    expanded = expand_power_sum_form(PowerSumForm(blocks.d_primes, q), blocks)
    form = power_sum_rewrite(expanded, blocks)
    assert form.poly == q


@given(st.data())
def test_rewrite_agrees_pointwise(data):
    """Evaluating the rewrite at the power sums of x equals evaluating at x."""
    k = data.draw(st.integers(min_value=2, max_value=4))
    d = data.draw(st.integers(min_value=1, max_value=3))
    blocks = BlockSpec.single(k, d)
    q = data.draw(power_sum_polys(blocks.d_primes, blocks.degree_caps))
    p = expand_power_sum_form(PowerSumForm(blocks.d_primes, q), blocks)
    form = power_sum_rewrite(p, blocks)
    xs = [data.draw(small_fractions) for _ in range(k)]
    d_prime = blocks.d_primes[0]
    power_values = [sum(x**m for x in xs) for m in range(1, d_prime + 1)]
    assert evaluate_polynomial(form.poly, power_values) == evaluate_polynomial(p, xs)


def seeded_power_sum_poly(rng: random.Random, blocks: BlockSpec) -> Polynomial:
    """Up to four monomials in the power sums of ``blocks``, each of weighted
    degree at most the cap in every block."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        expo = []
        for a, cap in zip(blocks.d_primes, blocks.degree_caps):
            part, budget = [0] * a, rng.randint(0, cap)
            for m in rng.sample(range(1, a + 1), a):
                part[m - 1] = rng.randint(0, budget // m)
                budget -= m * part[m - 1]
            expo += part
        terms[tuple(expo)] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return Polynomial(sum(blocks.d_primes), terms)


def test_rewrite_round_trips_on_a_seeded_pool():
    """The solve runs in the first min(k_i, D_i) variables of each block; on
    one and two blocks, k_i = 1..6 and caps 1..5 (k_i < D_i included) the
    form it finds expands back to p and is the q that p came from."""
    rng = random.Random(27)
    for _ in range(400):
        omega = rng.choice((1, 2))
        blocks = BlockSpec(
            tuple(rng.randint(1, 6 if omega == 1 else 3) for _ in range(omega)),
            tuple(rng.randint(1, 5) for _ in range(omega)),
        )
        q = seeded_power_sum_poly(rng, blocks)
        p = expand_power_sum_form(PowerSumForm(blocks.d_primes, q), blocks)
        form = power_sum_rewrite(p, blocks)
        assert form.poly == q, (blocks, q)
        assert expand_power_sum_form(form, blocks) == p


def test_rewrite_cost_does_not_grow_with_the_block_size():
    """(Σx_i²)² − Σx_i⁴ at k = 32 solves in 4 variables, not 32."""
    k = 32
    squares = " + ".join(f"x{i}^2" for i in range(1, k + 1))
    fourths = " - ".join(f"x{i}^4" for i in range(1, k + 1))
    p = parse_polynomial(f"({squares})^2 - {fourths}", k)
    start = time.perf_counter()
    form = power_sum_rewrite(p, BlockSpec.single(k, 4))
    assert time.perf_counter() - start < 0.2
    assert form.poly == parse_polynomial("x2^2 - x4", 4)


# ---------------------------------------------------------------------------
# formula rewriting
# ---------------------------------------------------------------------------


def test_sphere_formula_rewrites_to_plane():
    f = parse_formula("x1^2 + x2^2 + x3^2 = 1", 3)
    g = rewrite_formula(f, BlockSpec.single(3, 2))
    assert g.k == 2
    (atom,) = g.atoms()
    assert atom.relation == "="
    assert atom.poly == parse_polynomial("x2 - 1", 2)


def test_rewrite_formula_preserves_structure():
    f = parse_formula(
        "x1^2 + x2^2 + x3^2 <= 2 and (x1 + x2 + x3 >= 0 or x1^2 + x2^2 + x3^2 = 1)",
        3,
    )
    g = rewrite_formula(f, BlockSpec.single(3, 2))
    assert g.root.kind == "and"
    assert g.root.children[1].kind == "or"
    # same truth values along the image coordinates of sample points
    for xs in [(0, 0, 0), (1, 1, 1), (1, -1, 0), (Fraction(1, 2),) * 3]:
        y = (sum(xs), sum(v**2 for v in xs))
        assert evaluate_formula(g, y) == evaluate_formula(f, xs)


def test_rewrite_formula_rejects_asymmetric_atom():
    f = parse_formula("x1 >= 0", 2)
    with pytest.raises(SymmetryError):
        rewrite_formula(f, BlockSpec.single(2, 1))


def test_power_sum_polynomial_shape():
    blocks = BlockSpec((2, 2), (2, 2))
    p = power_sum_polynomial(blocks, 1, 2)
    assert p == parse_polynomial("x3^2 + x4^2", 4)
