"""Faces, fibre solving, image membership, and the p_{d+1}-maximal section.

Closed-form solutions are derived inside the tests (quadratic elimination,
forward evaluation of power sums at chosen points) and then frozen as the
expected values; the solver must reproduce them to tolerance.
"""

import math
import random
import time
import types
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from orbit_betti import fibres
from orbit_betti.compositions import Composition, comp_kd, comp_max, precedes
from orbit_betti.fibres import (
    _EMPTY,
    _UNIQUE,
    _bracket,
    _krawczyk,
    _ordered_root,
    _section_of,
    _sign_at,
    _sturm_roots,
    Face,
    FibreError,
    FibreSolution,
    INSIDE,
    OUTSIDE,
    UNDECIDED,
    arnold_section,
    image_conditions,
    image_membership,
    is_below_some_maximal,
    solve_fibre,
)
from orbit_betti.polys import (
    PolynomialError,
    as_rational,
    evaluate_polynomial,
    float_enclosure,
    parse_polynomial,
)

from helpers import power_sum_vector, weighted_power_sum

C = Composition.from_parts


# ---------------------------------------------------------------------------
# faces and weighted sums
# ---------------------------------------------------------------------------


def test_weighted_power_sum_values():
    assert weighted_power_sum(C((1, 2)), 2, (0, 1)) == 2
    assert weighted_power_sum(C((3,)), 3, (1,)) == 3
    assert weighted_power_sum(C((1, 1, 1)), 1, (1, 2, 3)) == 6
    # exact rational arithmetic on rational inputs
    value = weighted_power_sum(C((2, 3)), 2, (Fraction(1, 2), Fraction(1, 3)))
    assert value == 2 * Fraction(1, 4) + 3 * Fraction(1, 9)


def test_weighted_power_sum_dimension_check():
    with pytest.raises(FibreError):
        weighted_power_sum(C((1, 2)), 2, (1, 2, 3))


def in_closed_face(lam, x, tol=0.0):
    """Oracle: x is nondecreasing and constant on each group of λ; groups
    are read from the top, so along x the run lengths are the parts reversed."""
    if any(b - a < -tol for a, b in zip(x, x[1:])):
        return False
    pos = 0
    for mult in reversed(lam.parts):
        group = x[pos : pos + mult]
        if max(group) - min(group) > tol:
            return False
        pos += mult
    return True


def test_face_embed_and_contains():
    # parts count groups from the largest value: (1,2) is "top value alone,
    # bottom pair tied", embedded ascending
    lam = C((1, 2))
    assert Face(lam).embed((1, 0)) == (0, 0, 1)
    assert in_closed_face(lam, (0, 0, 1))
    assert not in_closed_face(lam, (0, 1, 1))  # bottom singleton: that is (2,1)
    assert not in_closed_face(lam, (0, 1, 2))  # group not constant
    assert not in_closed_face(lam, (1, 0, 0))  # not sorted
    assert in_closed_face(C((2, 1)), Face(C((2, 1))).embed((1, 0)))
    assert in_closed_face(C((3,)), Face(C((3,))).embed((5,)))
    assert in_closed_face(lam, Face(lam).embed((5, 5)))  # diagonal lies in every closed face


def test_face_sampling_respects_order_relation():
    """λ ≺ μ means the closed face W_λ sits inside W_μ: every embedded point
    of the smaller face must pass the bigger face's pattern check."""
    rng = np.random.default_rng(7)
    for k in range(2, 6):
        faces = [Face(c) for c in comp_kd(k, k)]
        for fa in faces:
            for fb in faces:
                if not precedes(fa.lam, fb.lam):
                    continue
                for _ in range(8):
                    t = np.sort(rng.uniform(-2.0, 2.0, size=fa.length))[::-1]
                    x = fa.embed(t.tolist())
                    assert in_closed_face(fb.lam, x, tol=1e-12), (fa.lam.parts, fb.lam.parts)


# ---------------------------------------------------------------------------
# solve_fibre
# ---------------------------------------------------------------------------


def test_solve_fibre_12_at_01():
    """λ=(1,2), y=(0,1): eliminate t1 = -2 t2 into t1² + 2t2² = 1, giving
    6 t2² = 1; t1 > t2 forces t2 = -1/√6, so t = (2/√6, -1/√6)."""
    expected = (2.0 / math.sqrt(6.0), -1.0 / math.sqrt(6.0))
    search = solve_fibre(C((1, 2)), (0, 1), tol=1e-9)
    assert search.undecided_boxes == 0
    assert len(search.solutions) == 1
    sol = search.solutions[0]
    assert sol.residual < 1e-9
    assert sol.t == pytest.approx(expected, abs=1e-8)
    assert sol.embedded() == pytest.approx(
        (expected[1], expected[1], expected[0]), abs=1e-8
    )


def test_solve_fibre_vertex_face_inconsistent():
    search = solve_fibre(C((3,)), (0, 1), tol=1e-9)
    assert (search.solutions, search.undecided_boxes) == ((), 0)


def test_solve_fibre_distinct_point():
    # forward evaluation at x = (1,2,3): p1 = 6, p2 = 14, p3 = 36
    assert power_sum_vector((1, 2, 3), 3) == (6, 14, 36)
    search = solve_fibre(C((1, 1, 1)), (6, 14, 36), tol=1e-9)
    assert search.undecided_boxes == 0
    assert len(search.solutions) == 1
    assert search.solutions[0].t == pytest.approx((3.0, 2.0, 1.0), abs=1e-8)


def test_solve_fibre_exact_linear_case():
    search = solve_fibre(C((4,)), (6,), tol=1e-12)
    assert len(search.solutions) == 1
    assert search.solutions[0].t == (1.5,)
    assert search.solutions[0].residual == 0.0


def test_solve_fibre_tangential_double_root():
    """y = (3,3) on face (1,2): the system forces (t2-1)² = 0, a double
    root at (1,1) where the Jacobian is singular; damping must still land."""
    search = solve_fibre(C((1, 2)), (3, 3), tol=1e-9)
    assert search.solutions, "double root not found"
    best = min(search.solutions, key=lambda s: s.residual)
    assert best.t == pytest.approx((1.0, 1.0), abs=1e-4)


def test_solve_fibre_radius_requirement():
    """The search box comes from y_2: without it an ℓ > 1 search refuses."""
    with pytest.raises(FibreError, match="needs y_2"):
        solve_fibre(C((1, 1)), (0,), tol=1e-9)  # ℓ=2 but only y1 given


def test_solve_fibre_returns_a_degenerate_root_once():
    """x on the (5, 1) face at k = 6 is a degenerate point of the (1, 4, 1)
    fibre: the converged Newton limits around it spread far beyond 1e-8 and
    once came back as 301 copies of one point."""
    lam, t = C((5, 1)), [Fraction(7, 8), Fraction(53, 64)]
    y = [weighted_power_sum(lam, m, t) for m in (1, 2, 3)]
    search = solve_fibre(C((1, 4, 1)), y)
    assert 1 <= len(search.solutions) <= 2
    result = arnold_section(6, 3, y)
    assert result.solution.face.lam.parts == (5, 1)
    assert result.candidates == 1


# -- the Krawczyk test --------------------------------------------------------


def _box_around(t, half_width):
    return [(float(v) - half_width, float(v) + half_width) for v in t]


def test_krawczyk_proves_a_simple_root_and_encloses_it():
    lam = C((1, 2, 1))
    t = [Fraction(5, 4), Fraction(1, 8), Fraction(-3, 4)]
    y = [weighted_power_sum(lam, m, t) for m in (1, 2, 3)]
    bounds = [float_enclosure(v) for v in y]
    verdict, enclosure = _krawczyk(lam.parts, _box_around(t, 1 / 64), bounds)
    assert verdict == _UNIQUE
    for (lo, hi), exact in zip(enclosure, t):
        assert Fraction(lo) <= exact <= Fraction(hi)
        assert hi - lo < 1 / 64


def test_krawczyk_empties_a_box_away_from_every_root():
    lam = C((1, 2, 1))
    t = [Fraction(5, 4), Fraction(1, 8), Fraction(-3, 4)]
    y = [weighted_power_sum(lam, m, t) for m in (1, 2, 3)]
    bounds = [float_enclosure(v) for v in y]
    verdict, enclosure = _krawczyk(lam.parts, _box_around((1, 0.5, 0), 1 / 64), bounds)
    assert (verdict, enclosure) == (_EMPTY, [])


def test_krawczyk_never_claims_uniqueness_at_coincident_parameters():
    """t_1 = t_2 on (1, 2, 1): J is singular there, so no box around the
    point may be proved to hold a unique root."""
    lam = C((1, 2, 1))
    t = [Fraction(1, 2), Fraction(1, 2), Fraction(-1, 4)]
    bounds = [float_enclosure(weighted_power_sum(lam, m, t)) for m in (1, 2, 3)]
    for shift in (0.0, 1 / 512, -1 / 300):
        for half_width in (1 / 16, 1 / 256, 1 / 4096):
            box = _box_around([float(t[0]) + shift, float(t[1]) - shift, t[2]], half_width)
            test = _krawczyk(lam.parts, box, bounds)
            assert test is None or test[0] != _UNIQUE


def test_solve_fibre_skips_krawczyk_on_positive_dimensional_fibres():
    """ℓ = 3 > d' = 2: the fibre is a curve, and the square subsystem the
    Krawczyk test needs does not exist."""
    search = solve_fibre(C((1, 1, 1)), (0, 1), tol=1e-6)
    assert search.solutions
    for sol in search.solutions:
        assert sum(sol.t) == pytest.approx(0, abs=1e-6)
        assert sum(v * v for v in sol.t) == pytest.approx(1, abs=1e-6)


def test_fibre_solution_invariants_enforced():
    with pytest.raises(FibreError):
        # residual-exact point but ascending parameters
        FibreSolution.make(Face(C((1, 2))), (0.2, 0.5), (1.2, 0.54), 1e-9)
    with pytest.raises(FibreError):
        FibreSolution.make(Face(C((1, 2))), (0.0, 0.0), (0, 1), 1e-9)  # residual 1


# ---------------------------------------------------------------------------
# image membership
# ---------------------------------------------------------------------------


def test_membership_examples():
    assert image_membership(3, 2, (0, 1)) == INSIDE
    assert image_membership(3, 2, (0, -1)) == OUTSIDE
    assert image_membership(3, 2, (3, 3)) == INSIDE


def test_membership_d_prime_one():
    assert image_membership(5, 1, (17,)) == INSIDE


def test_membership_cauchy_schwarz_rejections():
    rng = np.random.default_rng(3)
    count = 0
    while count < 100:
        k = int(rng.integers(2, 7))
        y1 = Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 5)))
        slack = Fraction(int(rng.integers(1, 50)), 17)
        y2 = y1**2 / k - slack  # strictly below the Cauchy-Schwarz line
        d = int(rng.integers(2, min(k, 4) + 1))
        y = [y1, y2] + [Fraction(0)] * (d - 2)
        assert image_membership(k, d, y) == OUTSIDE
        count += 1


def test_membership_boundary_diagonal_point():
    # all-equal points sit exactly on the Cauchy-Schwarz boundary
    assert image_membership(4, 2, (2, 1)) == INSIDE  # x = (1/2,)*4


def test_membership_forward_consistency():
    """Push 200 random sorted rational tuples forward; membership must say
    inside every time (the image of the chamber is covered by the faces)."""
    rng = np.random.default_rng(20260814)
    checked = 0
    while checked < 200:
        k = int(rng.integers(1, 7))
        d = int(rng.integers(1, 5))
        xs = sorted(
            Fraction(int(a), int(b))
            for a, b in zip(rng.integers(-4, 5, size=k), rng.integers(1, 4, size=k))
        )
        y = power_sum_vector(xs, min(k, d))
        assert image_membership(k, d, y, tol=1e-7) == INSIDE, (k, d, xs)
        checked += 1


def _exact_membership_d3(k: int, y) -> bool:
    """Exact decision on the closed (1, a, 1) face, a = k − 2, whose image is
    the whole image for d' = 3.  Fix s = t_2; then t_1 + t_3 = S,
    t_1² + t_3² = Q and t_1³ + t_3³ = C with S = y_1 − a·s, Q = y_2 − a·s²,
    C = y_3 − a·s³, so s is a root of the cubic (3SQ − S³)/2 − C, and
    t_3 ≤ s ≤ t_1 holds iff g(s) = s² − S·s + (S² − Q)/2 ≤ 0."""
    a = k - 2
    s = sympy.Symbol("s")
    y1, y2, y3 = (sympy.Rational(v.numerator, v.denominator) for v in y)
    big_s, big_q, big_c = y1 - a * s, y2 - a * s**2, y3 - a * s**3
    f = sympy.Poly((3 * big_s * big_q - big_s**3) / 2 - big_c, s, domain="QQ")
    g = sympy.Poly(s**2 - big_s * s + (big_s**2 - big_q) / 2, s, domain="QQ")
    if sympy.gcd(f, g).count_roots():
        return True  # a real root of f with g = 0
    for (u, v), _multiplicity in f.intervals():
        # g has no zero at the root, so refine until g keeps one sign on [u, v]
        while u != v and g.count_roots(u, v):
            u, v = f.refine_root(u, v, eps=(v - u) / 4)
        if g.eval(u) < 0:
            return True
    return False


def _face_search_verdict(k: int, y) -> str:
    """Membership by the face search alone: ``solve_fibre`` over comp_kd(k, d')."""
    undecided = False
    for lam in comp_kd(k, len(y)):
        search = solve_fibre(lam, y)
        if search.solutions:
            return INSIDE
        undecided = undecided or search.undecided_boxes > 0
    return UNDECIDED if undecided else OUTSIDE


def test_membership_matches_exact_oracle_d3():
    """330 seeded points of (1/16)Z³ that pass the (p_1, p_2) test, k = 4, 5,
    6: ``image_membership`` gives the exact verdict every time.  The face
    search gives it too, or undecided on at most 1% of the points; the first
    point was undecided there before the Krawczyk test."""
    rng = random.Random(20261018)
    points = [(4, (Fraction(1, 16), Fraction(17, 16), Fraction(11, 16)))]
    while len(points) < 330:
        k = rng.choice((4, 5, 6))
        y1 = Fraction(rng.randint(-24, 24), 16)
        y2 = Fraction(math.ceil(16 * y1 * y1 / k), 16) + Fraction(rng.randint(0, 24), 16)
        bound = int(16 * float(y2) ** 1.5) + 1
        points.append((k, (y1, y2, Fraction(rng.randint(-bound, bound), 16))))
    undecided = 0
    for k, y in points:
        exact = _exact_membership_d3(k, y)
        assert image_membership(k, 3, y) == (INSIDE if exact else OUTSIDE), (k, y)
        verdict = _face_search_verdict(k, y)
        if verdict == UNDECIDED:
            undecided += 1
            continue
        assert (verdict == INSIDE) == exact, (k, y, verdict)
    assert _face_search_verdict(4, points[0][1]) == OUTSIDE
    assert undecided <= len(points) // 100


def test_membership_searches_faces_only_beyond_d3(monkeypatch):
    """d' ≤ 3 is decided by the image conditions alone; at d' = 4 a point
    whose (p_1, p_2, p_3) fails them is outside before any search."""

    def no_search(*args, **kwargs):
        raise AssertionError("solve_fibre called")

    monkeypatch.setattr(fibres, "solve_fibre", no_search)
    assert image_membership(4, 3, (Fraction(1, 16), Fraction(17, 16), Fraction(11, 16))) == OUTSIDE
    assert image_membership(4, 3, power_sum_vector((0, 0, 1, 2), 3)) == INSIDE
    assert image_membership(4, 3, power_sum_vector((0, 0, 0, 1), 3)) == INSIDE
    assert image_membership(3, 2, (0, 1)) == INSIDE
    # k = 5: V = 5 and T = 25 at (0, 1, 1), and 9·5³ < 4·25²
    assert image_membership(5, 4, (0, 1, 1, 0)) == OUTSIDE
    with pytest.raises(FibreError, match="outside"):
        arnold_section(4, 3, (Fraction(1, 16), Fraction(17, 16), Fraction(11, 16)))


def test_image_conditions_vanish_on_the_extreme_faces():
    """|skewness| reaches (k−2)/√(k−1) where one value stands apart from the
    other k − 1: there the d' = 3 polynomial is exactly 0, and it is ≥ 0 at
    the power sums of every point."""
    rng = random.Random(11)
    for k in range(3, 8):
        (condition,) = image_conditions(k, 3, 3, 0)
        for x in ([0] * (k - 1) + [1], [0] + [1] * (k - 1)):
            assert evaluate_polynomial(condition, power_sum_vector(x, 3)) == 0
        for _ in range(20):
            x = [Fraction(rng.randint(-16, 16), 8) for _ in range(k)]
            assert evaluate_polynomial(condition, power_sum_vector(x, 3)) >= 0
    assert image_conditions(5, 1, 1, 0) == ()
    assert image_conditions(3, 2, 4, 2) == (parse_polynomial("3*x4 - x3^2", 4),)
    assert image_conditions(5, 4, 4, 0) == image_conditions(5, 3, 4, 0)


def _sign(value):
    return (value > 0) - (value < 0)


def test_integer_image_test_matches_fraction_evaluation():
    """The membership test decides the image condition on the power sums
    scaled to integers once; its sign equals the Fraction evaluation of
    ``image_conditions`` at 1,200 seeded points, k = 3..7, d' = 2, 3, with
    denominators 3, 7 and 10^6.  A third are exact zeros (the diagonal, and
    for d' = 3 one value apart from the other k − 1: the (a, b) face with a
    part 1 and the (1, b, 1) face with two values equal), a third are such
    zeros with one power sum nudged by ±1/10^12, and the rest lie on generic
    (a, b) and (1, b, 1) faces."""
    rng = random.Random(20261022)
    signs = {-1: 0, 0: 0, 1: 0}
    for i in range(1200):
        k, d_prime = 3 + i % 5, 2 + (i // 5) % 2
        den = (3, 7, 10**6)[(i // 10) % 3]
        u, s, v = sorted((Fraction(rng.randint(-4 * den, 4 * den), den) for _ in range(3)),
                         reverse=True)
        kind = i % 6
        if kind < 4:
            # a zero: the diagonal, (1, k − 1), (k − 1, 1), or (1, k − 2, 1) with u = s
            parts, t = [((k,), (u,)), ((1, k - 1), (u, v)), ((k - 1, 1), (u, v)),
                        ((1, k - 2, 1), (u, u, v))][kind if d_prime == 3 else 0]
        elif kind == 4:
            parts, t = (rng.randint(1, k - 1),), (u, v)
            parts += (k - parts[0],)
        else:
            parts, t = (1, k - 2, 1), (u, s, v)
        y = [weighted_power_sum(C(parts), m, t) for m in range(1, d_prime + 1)]
        if kind < 4 and (i // 6) % 2:
            y[rng.randrange(d_prime)] += rng.choice([-1, 1]) * Fraction(1, 10**12)
        (condition,) = image_conditions(k, d_prime, d_prime, 0)
        expected = _sign(evaluate_polynomial(condition, y))
        (scaled,) = fibres._moment_conditions(k, d_prime, fibres._PowerSums(y).ints)
        assert isinstance(scaled, int)
        assert _sign(scaled) == expected, (k, d_prime, y)
        assert image_membership(k, d_prime, y) == (OUTSIDE if expected < 0 else INSIDE)
        signs[expected] += 1
    assert min(signs.values()) >= 150, signs


def test_exact_membership_oracle_says_inside_on_forward_images():
    rng = random.Random(7)
    for _ in range(40):
        k = rng.choice((4, 5, 6))
        x = [Fraction(rng.randint(-40, 40), 16) for _ in range(k)]
        if rng.random() < 0.5:
            x[1] = x[2] = x[0]
        assert _exact_membership_d3(k, power_sum_vector(x, 3))
    assert not _exact_membership_d3(4, (Fraction(1, 16), Fraction(17, 16), Fraction(11, 16)))


@given(
    st.integers(min_value=2, max_value=6),
    st.data(),
)
@settings(max_examples=30)
def test_chamber_injectivity_exact(k, data):
    """Distinct sorted tuples have distinct full power-sum vectors (p_1..p_k),
    in exact arithmetic."""
    fracs = st.fractions(
        min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
    )
    a = sorted(data.draw(fracs) for _ in range(k))
    b = sorted(data.draw(fracs) for _ in range(k))
    if a == b:
        return
    assert power_sum_vector(a, k) != power_sum_vector(b, k)


# ---------------------------------------------------------------------------
# the section
# ---------------------------------------------------------------------------


def test_section_k3_d2_generic():
    result = arnold_section(3, 2, (0, 1), tol=1e-9)
    assert result.solution.face.lam.parts == (1, 2)
    expected_x = (-1.0 / math.sqrt(6.0), -1.0 / math.sqrt(6.0), 2.0 / math.sqrt(6.0))
    assert result.x == pytest.approx(expected_x, abs=1e-7)
    # p_3 at the section: t1³ + 2 t2³ = 8/(6√6) - 2/(6√6) = +1/√6, the top of
    # the fibre circle (the bottom, -1/√6, sits at the mirrored pattern (2,1))
    assert result.value == pytest.approx(1.0 / math.sqrt(6.0), abs=1e-7)
    assert not result.ambiguous


def test_section_boundary_stratum_in_minimal_face():
    """y = (3,3) is the image of the diagonal point (1,1,1); it shows up in
    the closure of every face but must be reported in the vertex face (3)."""
    result = arnold_section(3, 2, (3, 3), tol=1e-9)
    assert result.solution.face.lam.parts == (3,)
    assert result.x == pytest.approx((1.0, 1.0, 1.0), abs=1e-6)
    assert result.value == pytest.approx(3.0, abs=1e-5)
    assert result.candidates == 1


def test_section_k4_d2_lands_in_comp_max():
    result = arnold_section(4, 2, (0, 1), tol=1e-9)
    assert result.solution.face.lam.parts == (1, 3)
    # derivation: t1 = -3t2 and t1² + 3t2² = 1 give 12 t2² = 1; t1 > t2
    # selects t2 = -1/√12, and p3 = t1³ + 3t2³ = (27-3)/(12√12) = 2/√12
    t2 = -1.0 / math.sqrt(12.0)
    assert result.x == pytest.approx((t2, t2, t2, -3 * t2), abs=1e-7)
    assert result.value == pytest.approx(2.0 / math.sqrt(12.0), abs=1e-7)


def test_section_requires_d_below_k():
    with pytest.raises(FibreError):
        arnold_section(3, 3, (0, 1, 0))


def test_section_rejects_outside_point():
    with pytest.raises(FibreError):
        arnold_section(3, 2, (0, -1))


def test_section_localization_random():
    """Random inside points at (k,d) in {(3,2),(4,2),(4,3)}: the section's
    face must lie below a maximal face, and its p_{d+1} value must beat every
    other located candidate."""
    rng = np.random.default_rng(99)
    cases = [(3, 2), (4, 2), (4, 3)]
    per_case = 34
    for k, d in cases:
        for _ in range(per_case):
            xs = sorted(
                Fraction(int(a), 2) for a in rng.integers(-4, 5, size=k)
            )
            y = power_sum_vector(xs, min(k, d))
            result = arnold_section(k, d, y, tol=1e-7)
            assert is_below_some_maximal(result.solution.face.lam, k, d)
            # re-solve every face: no candidate value may exceed the section's
            for lam in comp_kd(k, min(k, d)):
                search = solve_fibre(lam, y, tol=1e-7)
                for sol in search.solutions:
                    value = sum(
                        w * tv ** (d + 1) for w, tv in zip(lam.parts, sol.t)
                    )
                    assert value <= result.value + 1e-6


def test_solver_recovers_constructed_fibre_points():
    """Independent oracle on 102 cases: y is built from a known face point
    (λ, t), so the solver must find t, membership must say inside, and the
    section must reach at least p4 of the point itself."""
    rng = np.random.default_rng(20261018)
    for k in (4, 5, 6):
        faces = comp_kd(k, 3)
        for _ in range(34):
            lam = faces[int(rng.integers(len(faces)))]
            grid = rng.choice(np.arange(-80, 81), size=lam.length, replace=False)
            t = [Fraction(int(v), 64) for v in sorted(grid, reverse=True)]
            y = [weighted_power_sum(lam, m, t) for m in (1, 2, 3)]
            search = solve_fibre(lam, y)
            assert any(
                max(abs(a - float(b)) for a, b in zip(sol.t, t)) <= 1e-6
                for sol in search.solutions
            ), (lam, t, search)
            assert image_membership(k, 3, y) == INSIDE
            x = Face(lam).embed(t)
            p4 = float(sum(v**4 for v in x))
            assert arnold_section(k, 3, y).value >= p4 - 1e-6


# -- the closed-form section for d' ≤ 3 -----------------------------------------


def _with_roots(roots, lead=1):
    """Integer coefficients, highest first, of a positive multiple of
    lead·Π (x − r)."""
    coeffs = [Fraction(lead)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    scale = math.lcm(*(c.denominator for c in coeffs))
    return [int(c * scale) for c in coeffs]


def test_ordered_root_is_picked_exactly():
    """The smaller root of a quadratic and the middle root of a cubic, under
    either sign of the leading coefficient: the float guess after one exact
    Newton step when its bracket shows the exact crossing, else Sturm
    bisection, which a neighbour closer than the bracket forces."""
    for lead in (-3, 2):
        assert _ordered_root(_with_roots([Fraction(5, 2), Fraction(-1, 4)], lead=lead)) == -0.25
        cubic = _with_roots([Fraction(-2), Fraction(7, 8), Fraction(1, 3)], lead=lead)
        assert _ordered_root(cubic) == 1 / 3
    close = _with_roots([Fraction(1), 1 + Fraction(1, 10**13), Fraction(2)])
    assert not _bracket(close, 1.0 + 1e-13)[0]
    root = _ordered_root(close)
    assert root == _sturm_roots(close)[1] == pytest.approx(1.0 + 1e-13, abs=1e-15)
    assert root > 1.0
    # two roots 1e-13·|r| apart at |r| ≈ 1e6: the middle one's bracket of
    # 2^-40·|r| holds both, so it comes from Sturm bisection
    million = 10**6
    wide = _with_roots([Fraction(million), million + Fraction(1, 10**7), Fraction(-3 * million)])
    assert not _bracket(wide, 1e6)[0]
    root = _ordered_root(wide)
    assert root == _sturm_roots(wide)[1] == pytest.approx(1e6, rel=2**-50)


def test_brackets_are_exactly_their_width():
    """A float root counts when the exact root lies within 2^-40·max(1, |r|)
    of it, and only then: the bracket ends are taken exactly.  The sign must
    run from the leading coefficient's below the root to the opposite one
    above it, which only a quadratic's smaller and a cubic's middle root do."""
    coeffs = _with_roots([Fraction(1), Fraction(3)])
    assert _bracket(coeffs, 1 + 2**-42)[0]
    assert _bracket(coeffs, 1 - 2**-41)[0]
    assert not _bracket(coeffs, 1 + 2**-39)[0]
    assert not _bracket(coeffs, 1 - 2**-39)[0]
    assert not _bracket(coeffs, 3 * (1 + 2**-41))[0]
    assert _bracket([-c for c in coeffs], 1 + 2**-42)[0]
    # beyond |r| = 1 the width is relative
    above_one = _with_roots([Fraction(3), Fraction(5)])
    assert _bracket(above_one, 3 * (1 + 2**-41))[0]
    assert not _bracket(above_one, 3 * (1 - 2**-39))[0]
    # a bracket end on the root is no strict sign change
    at_zero = _with_roots([Fraction(0), Fraction(3)])
    assert _bracket(at_zero, 2**-40 * 0.999)[0]
    assert not _bracket(at_zero, 2**-40)[0]
    for lead in (-3, 1):
        cubic = _with_roots([Fraction(-2), Fraction(1, 3), Fraction(7, 8)], lead=lead)
        assert _bracket(cubic, 1 / 3 + 2**-42)[0]
        assert not _bracket(cubic, -2.0)[0] and not _bracket(cubic, 7 / 8)[0]


def _fraction_sign(coeffs, x):
    """The sign of the polynomial at the rational x by Horner in Fractions:
    the reference for the integer sign routine."""
    value = Fraction(0)
    for c in coeffs:
        value = value * x + c
    return (value > 0) - (value < 0)


def test_integer_sign_matches_fraction_horner():
    """1200 seeded (polynomial, point) pairs, quadratics and cubics with
    denominators up to 2^120: the homogenised integer Horner sign at n/den,
    in lowest terms or scaled by a power of two as the brackets pass it,
    equals the Fraction Horner sign.  A quarter of the points are exact
    roots (sign 0) and a quarter lie within 2^-40 of one."""
    rng = random.Random(20261019)
    signs = {-1: 0, 0: 0, 1: 0}
    for i in range(1200):
        degree = 2 + i % 2
        if i % 8 < 6:
            roots = [
                Fraction(rng.randint(-10**9, 10**9), rng.choice(
                    [1, 3, 2 ** rng.randint(0, 120), rng.randint(1, 2**120)]))
                for _ in range(degree)
            ]
            coeffs = _with_roots(roots, lead=rng.choice([-7, -1, 1, 5]))
        else:
            roots = [Fraction(rng.randint(-10**6, 10**6), 1000)]
            coeffs = [rng.choice([-1, 1]) * rng.randint(1, 2**100)] + [
                rng.randint(-2**100, 2**100) for _ in range(degree)]
        kind = i % 4
        if kind == 0:
            x = rng.choice(roots)
        elif kind == 1:
            offset = Fraction(rng.randint(1, 2**20), 2 ** (60 + rng.randint(0, 60)))
            x = rng.choice(roots) + rng.choice([-1, 1]) * offset
        elif kind == 2:
            x = Fraction(rng.uniform(-1e3, 1e3))
        else:
            x = Fraction(rng.randint(-2**130, 2**130), rng.randint(1, 2**120))
        shift = rng.choice([0, 0, rng.randint(1, 64)])
        sign = _sign_at(coeffs, x.numerator << shift, x.denominator << shift)
        assert sign == _fraction_sign(coeffs, x), (coeffs, x)
        signs[sign] += 1
    assert min(signs.values()) >= 150, signs
    assert signs[0] >= 300 - 20, signs


def _section_points():
    """450 seeded (k, d, y), k = 4…6 and d' = 2, 3, y the power sums of a
    point with coordinates in (1/64)ℤ, one in five with a repeated
    coordinate and one in ten on the diagonal."""
    rng = random.Random(20261020)
    for i in range(450):
        k, d = 4 + i % 3, 2 + i % 2
        x = [Fraction(rng.randint(-96, 96), 64) for _ in range(k)]
        if i % 10 == 0:
            x = [x[0]] * k
        elif i % 5 == 1:
            x[1] = x[0]
        yield k, d, power_sum_vector(sorted(x), d)


def _recorded_eliminants():
    """The quadratics and cubics ``arnold_section`` hands ``_ordered_root``
    on the ``_section_points``."""
    recorded = []
    ordered_root = fibres._ordered_root

    def record(coeffs):
        recorded.append(list(coeffs))
        return ordered_root(coeffs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fibres, "_ordered_root", record)
        for k, d, y in _section_points():
            arnold_section(k, d, y)
    return recorded


def _reference_eliminant(parts, y):
    """The eliminant of the face in Fractions, from the unscaled power sums:
    b(a+b)·v² − 2b·y_1·v + (y_1² − a·y_2) on (a, b), and A³ − 3AB + 2C in s
    on (1, b, 1)."""
    y1, y2 = y[0], y[1]
    if len(parts) == 2:
        a, b = parts
        return [Fraction(b * (a + b)), -2 * b * y1, y1 * y1 - a * y2]
    b, y3 = parts[1], y[2]
    return [Fraction(-b * (b + 1) * (b + 2)), 3 * b * (b + 1) * y1,
            3 * b * (y2 - y1 * y1), y1**3 - 3 * y1 * y2 + 2 * y3]


def test_integer_eliminants_are_positive_multiples_of_the_fraction_ones():
    """The maximal face's eliminant is built in integers from the once-scaled
    power sums: on the ``_section_points``, and on 60 more with denominators
    3, 7 and 1000, the integers over s^deg (s the lcm of the denominators of
    y) are exactly the coefficients of the reference Fraction eliminant, so
    they are the positive multiple s^deg of it."""
    rng = random.Random(20261023)
    points = list(_section_points())
    for i in range(60):
        k, d, den = 4 + i % 3, 2 + i % 2, (3, 7, 1000)[i % 3]
        x = sorted(Fraction(rng.randint(-2 * den, 2 * den), den) for _ in range(k))
        points.append((k, d, power_sum_vector(x, d)))
    checked = 0
    for k, d, y in points:
        sums = fibres._PowerSums(y)
        coeffs = fibres._section_eliminant(k, sums)
        assert all(type(c) is int for c in coeffs) and len(coeffs) == d + 1
        (lam,) = comp_max(k, d)
        reference = _reference_eliminant(lam.parts, y)
        assert [Fraction(c, sums.scale**d) for c in coeffs] == reference, (k, y)
        checked += 1
    assert checked >= 300, checked


def _clustered_cubics():
    """120 seeded cubics with two roots 2^-5…2^-60 apart relative to their
    size, at scales 1 and 1e3, half of them nudged so that the close pair
    splits irrationally or turns complex, plus 40 with a double or triple
    rational root."""
    rng = random.Random(20261021)
    out = []
    for i in range(160):
        scale = rng.choice([1, 1000])
        r = Fraction(rng.randint(-2**12, 2**12), 2**12) * scale
        s = Fraction(rng.randint(-2**12, 2**12), 2**12) * scale
        if i < 120:
            gap = max(1, abs(r)) * Fraction(rng.randint(1, 1000), 1000 * 2 ** rng.randint(5, 60))
            coeffs = _with_roots([r, r + gap, s], lead=rng.choice([-3, 1, 2]))
            if i % 2:
                coeffs[-1] += rng.choice([-1, 1])
        else:
            coeffs = _with_roots([r, r, s] if i % 2 else [r, r, r], lead=rng.choice([-3, 1]))
        out.append(coeffs)
    return out


def test_ordered_root_matches_sympy():
    """``_ordered_root`` against sympy's exact roots on 460+ seeded
    eliminants whose real roots are all simple: the section's own quadratics
    and cubics, and the clustered cubics with three real roots.  Each answer
    is within 2^-50·max(1, |r|) of the smaller (quadratic) or middle (cubic)
    real root r.  The section's own eliminants never fall back to Sturm
    bisection, so the float guess and its bracket pick that root."""
    x = sympy.Symbol("x")
    section = _recorded_eliminants()
    clustered = [c for c in _clustered_cubics() if sympy.discriminant(sympy.Poly(c, x)) > 0]
    assert len(section) + len(clustered) >= 460
    sturm_roots = fibres._sturm_roots
    fallbacks = []

    def record(coeffs):
        fallbacks.append(coeffs)
        return sturm_roots(coeffs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fibres, "_sturm_roots", record)
        for i, coeffs in enumerate(section + clustered):
            if i == len(section):
                assert fallbacks == []
            roots = sympy.Poly(coeffs, x).real_roots()
            assert len(set(roots)) == len(roots) == len(coeffs) - 1, coeffs
            expected = float(roots[len(coeffs) - 3].evalf(40))
            got = _ordered_root(coeffs)
            assert abs(got - expected) <= 2**-50 * max(1.0, abs(expected)), (coeffs, got, expected)
    assert fallbacks


def test_cubic_eliminant_has_a_double_root_on_two_part_faces():
    """On (1, b, 1), a point of the two-part face (5, 1) makes the cubic
    A³ − 3AB + 2C in the middle parameter s have a double root (discriminant
    0), and a diagonal point a triple one: the cases the closed form answers
    by exact formulas."""
    s = sympy.Symbol("s")

    def cubic(b, y):
        y1, y2, y3 = (sympy.Rational(v.numerator, v.denominator) for v in y)
        a, q, c = y1 - b * s, y2 - b * s**2, y3 - b * s**3
        return sympy.Poly(a**3 - 3 * a * q + 2 * c, s, domain="QQ")

    lam, t = C((5, 1)), [Fraction(7, 8), Fraction(53, 64)]
    f = cubic(4, [weighted_power_sum(lam, m, t) for m in (1, 2, 3)])
    assert f.LC() == -4 * 5 * 6
    assert sympy.discriminant(f) == 0
    assert f.rem(sympy.Poly((8 * s - 7) ** 2, s)).is_zero
    g = cubic(2, power_sum_vector([Fraction(1, 3)] * 4, 3))
    assert g.rem(sympy.Poly((3 * s - 1) ** 3, s)).is_zero


def test_eliminant_discriminants_are_the_image_conditions():
    """As polynomial identities in the scaled power sums Y_m and the scale
    s: the quadratic's discriminant is 4(k−1)·s²·V and, for k = 4..9, the
    cubic's is c_k·s⁶·Q with a constant c_k > 0, V and Q the image
    conditions at Y.  So V > 0 and Q > 0 are exactly when their roots are
    real and simple."""
    x, scale = sympy.symbols("x s")
    big = sympy.symbols("Y1:4")
    constants = {}
    for k in range(3, 10):
        for d_prime in (2, 3) if k > 3 else (2,):
            sums = types.SimpleNamespace(scale=scale, ints=big[:d_prime])
            coeffs = fibres._section_eliminant(k, sums)
            eliminant = sympy.Poly(sum(c * x ** (d_prime - i) for i, c in enumerate(coeffs)), x)
            (condition,) = fibres._moment_conditions(k, d_prime, big)
            power = {2: 2, 3: 6}[d_prime]
            ratio = sympy.cancel(sympy.discriminant(eliminant) / (scale**power * condition))
            assert ratio.is_Rational and ratio > 0, (k, d_prime, ratio)
            if d_prime == 2:
                assert ratio == 4 * (k - 1)
            else:
                constants[k] = ratio
    assert (constants[4], constants[5], constants[6]) == (81, sympy.Rational(3888, 25), 240)


def _ordered_root_points():
    """1,000 seeded d' = 3 chamber points, k = 4…9, coordinates in
    (1/den)ℤ ∩ [−2, 2] with den cycling through 3, 7, 64 and 2^20.  Of every
    ten: one on the diagonal, one on each boundary face (k−1, 1) and
    (1, k−1), one on a two-part face (a, b) with a, b ≥ 2, one with its top
    two values equal, and five generic."""
    rng = random.Random(20261024)
    for i in range(1000):
        k, den = 4 + i % 6, (3, 7, 64, 2**20)[i % 4]
        x = sorted(Fraction(rng.randint(-2 * den, 2 * den), den) for _ in range(k))
        kind = i % 10
        if kind == 0:
            x = [x[0]] * k
        elif kind in (1, 2):
            x = [x[0]] + [x[-1]] * (k - 1) if kind == 1 else [x[0]] * (k - 1) + [x[-1]]
        elif kind == 3:
            a = rng.randint(2, k - 2)
            x = [x[0]] * (k - a) + [x[-1]] * a
        elif kind == 4:
            x[-2] = x[-1]
        yield k, x


def _root_signs(k, y):
    """Each distinct real root of the (1, k−2, 1) cubic f in s, as an exact
    rational or an isolating interval narrower than 2^-60, with the sign of
    g(s) = (y_2 − y_1²) + 2(b+1)·y_1·s − (b+1)(b+2)·s², b = k − 2, which is
    ≥ 0 exactly when u ≥ s ≥ v."""
    b, s = k - 2, sympy.Symbol("s")
    y1, y2 = y[0], y[1]

    def poly(coeffs):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in coeffs], s,
                          domain="QQ")

    f = poly(_reference_eliminant((1, b, 1), y))
    g = poly([Fraction(-(b + 1) * (b + 2)), 2 * (b + 1) * y1, y2 - y1 * y1])
    rational = f.ground_roots()
    out = [(r, r, int(sympy.sign(g.eval(r)))) for r in rational]
    irrational = f.sqf_part()
    for r in rational:
        irrational = irrational.exquo(poly([Fraction(1), -Fraction(int(r.p), int(r.q))]))
    # g vanishes only at rational roots of f (double roots on the boundary)
    assert sympy.gcd(irrational, g).degree() == 0
    for (lo, hi), _multiplicity in irrational.intervals(eps=sympy.Rational(1, 2**62)):
        while g.count_roots(lo, hi):
            lo, hi = irrational.refine_root(lo, hi, eps=(hi - lo) / 4)
        out.append((lo, hi, int(sympy.sign(g.eval(lo)))))
    return out


def test_section_root_is_the_only_ordered_root():
    """On the ``_ordered_root_points`` the section's middle parameter -- on
    the boundary faces the value repeated k − 1 times, on the diagonal the
    one value -- is the float nearest to one root r of the (1, k−2, 1) cubic,
    within 2^-50·max(1, |r|), and g(r) ≥ 0 there while g < 0 at every other
    real root: the section takes the one ordered root, exactly."""
    faces = {}
    for k, x in _ordered_root_points():
        y = power_sum_vector(x, 3)
        result = arnold_section(k, 3, y)
        parts, t = result.solution.face.lam.parts, result.solution.t
        ours = t[0] if parts in ((k,), (k - 1, 1)) else t[1]
        roots = _root_signs(k, y)
        (ordered,) = [(lo, hi) for lo, hi, sign in roots if sign >= 0]
        nearest = min(roots, key=lambda r: abs(ours - r[0]))
        assert nearest[:2] == ordered, (k, x, ours, roots)
        assert abs(ours - float(ordered[0])) <= 2**-50 * max(1, abs(float(ordered[0]))), (k, x)
        faces[parts] = faces.get(parts, 0) + 1
    assert set(faces) >= {(1, k - 2, 1) for k in range(4, 10)} | {(4,), (6,), (8,)}
    assert sum(v for p, v in faces.items() if len(p) == 2) >= 190


def _searched_section(k, d, y, tol=1e-9):
    """The section over ``solve_fibre``'s candidates: the subdivision oracle."""
    searches = [solve_fibre(lam, y, tol=tol) for lam in comp_kd(k, d)]
    raw = [sol for search in searches for sol in search.solutions]
    return _section_of(raw, d, tol, sum(search.undecided_boxes for search in searches))


def _oracle_points():
    """1012 seeded chamber points: 170 for each k = 3…7 at d' = 2 and 40 for
    each k = 4…7 at d' = 3, where subdivision costs about 25 times as much.
    Coordinates are in (1/16)ℤ ∩ [−3/2, 3/2]; one point in ten
    repeats a coordinate (a boundary face), one in twenty lies on a two-part
    face (a double root of the (1, k−2, 1) cubic) and one in twenty on the
    diagonal (a triple root)."""
    rng = random.Random(20261018)
    cases = [(k, d, 170 if d == 2 else 40) for k in range(3, 8) for d in (2, 3) if d < k]
    for k, d, count in cases:
        for i in range(count):
            x = [Fraction(rng.randint(-24, 24), 16) for _ in range(k)]
            if i % 20 == 0:
                x = [x[0]] * k
            elif i % 20 == 1:
                x = [x[0]] * (k - 1) + [x[1]]
            elif i % 10 == 2:
                x[1] = x[0]
            yield k, d, power_sum_vector(sorted(x), d)
    lam, t = C((5, 1)), [Fraction(7, 8), Fraction(53, 64)]
    yield 6, 3, [weighted_power_sum(lam, m, t) for m in (1, 2, 3)]
    yield 3, 2, (3, 3)


def test_closed_form_section_matches_solve_fibre():
    """Where subdivision settles every box, the closed-form section and the
    one over ``solve_fibre``'s candidates agree on face, candidate count and
    ambiguity, and on the value within 1e-6·max(1, |value|).  A search that
    leaves boxes undecided can report a degenerate root twice, so at those
    points the closed form need only reach every located value."""
    compared = unsettled = 0
    for k, d, y in _oracle_points():
        closed = arnold_section(k, d, y)
        searched = _searched_section(k, d, y)
        assert closed.undecided_boxes == 0
        tolerance = 1e-6 * max(1.0, abs(searched.value))
        if searched.undecided_boxes:
            unsettled += 1
            assert closed.value >= searched.value - tolerance, (k, d, y)
            continue
        compared += 1
        assert closed.solution.face == searched.solution.face, (k, d, y)
        assert closed.candidates == searched.candidates, (k, d, y)
        assert closed.ambiguous == searched.ambiguous, (k, d, y)
        assert closed.value == pytest.approx(searched.value, abs=tolerance), (k, d, y)
    assert compared >= 1000 - 10
    assert unsettled <= 10


def test_section_reports_a_boundary_point_once_in_its_minimal_face():
    """x = (19/16, 5/4, 5/4, 5/4) lies on the face (3, 1).  Subdivision of the
    (1, 2, 1) fibre left 11 boxes undecided and a Newton limit 4e-5 from x,
    outside the √tol dedup radius, so the section came out as (1, 2, 1) with
    two candidates and flagged ambiguous."""
    x = (Fraction(19, 16), Fraction(5, 4), Fraction(5, 4), Fraction(5, 4))
    result = arnold_section(4, 3, power_sum_vector(x, 3))
    assert result.solution.face.lam.parts == (3, 1)
    assert (result.candidates, result.ambiguous) == (1, False)
    assert result.x == pytest.approx([float(v) for v in x], abs=1e-12)


def test_section_takes_the_one_ordered_root_at_small_scale():
    """At y = (−37/62500, 697/7812500000, −13357/976562500000000), |x| ≈ 1e-4,
    the (1, 2, 1) cubic has three rational roots and only s = −37/250000 is
    ordered.  The section over every face's eliminant points answered (3, 1)
    with value 2.1528e-15: that point misses y_3 by 0.27%, inside the
    absolute tol, and the √tol merge radius joined it to the true one.  The
    boundary point of x = (19/16, 5/4, 5/4, 5/4) takes the cubic's double
    root.  Both are README examples, in its string form."""
    y = [as_rational(v) for v in "-37/62500,697/7812500000,-13357/976562500000000".split(",")]
    result = arnold_section(4, 3, y)
    assert result.solution.face.lam.parts == (1, 2, 1)
    assert (result.candidates, result.ambiguous) == (1, False)
    assert result.solution.t[1] == -37 / 250000
    assert result.value == pytest.approx(2.130699264e-15, rel=1e-12)
    boundary = [as_rational(v) for v in "79/16,1561/256,30859/4096".split(",")]
    assert tuple(boundary) == power_sum_vector([Fraction(19, 16)] + [Fraction(5, 4)] * 3, 3)
    assert arnold_section(4, 3, boundary).solution.face.lam.parts == (3, 1)
    # at |x| ≈ 1e-200 the eliminants' monic ratios round to zero, and the
    # quadratic's float guess divided by it
    assert arnold_section(3, 2, (0, Fraction(1, 10**400))).solution.face.lam.parts == (1, 2)
    tiny = power_sum_vector([Fraction(v, 10**200) for v in (0, 1, 2, 7)], 3)
    assert arnold_section(4, 3, tiny).solution.face.lam.parts == (1, 2, 1)


def test_section_of_a_tiny_point_is_the_unit_section_scaled():
    """At y = (10^-200, 10^-400), k = 3, y_2 rounds to 0 and the section
    was x ≈ (−6.9e-18, −6.9e-18, 1.4e-17); at the power sums of (0, 1, 2,
    7)·10^-200 it was a point out of chamber order.  A point below
    2^-_SMALL_BITS is solved at unit scale and scaled back, so the section
    at the power sums of 2^-j·x is 2^-j times the section at x, bit for
    bit, on seeded points of every d' ≤ 3 branch."""
    result = arnold_section(3, 2, (Fraction(1, 10**200), Fraction(1, 10**400)))
    assert result.solution.face.lam.parts == (1, 2)
    assert result.x == pytest.approx((0.0, 0.0, 1e-200), rel=1e-12, abs=1e-212)
    assert result.solution.residual <= 1e-9 * 1e-200
    rng = random.Random(20261020)
    points = [(4, 3, [0, 1, 2, 7])]
    for i in range(60):
        k, den = rng.randint(3, 7), rng.choice([1, 3, 7, 64])
        x = sorted(Fraction(rng.randint(-9 * den, 9 * den), den) for _ in range(k))
        if i % 4 == 1:
            x = [x[0]] * (k - 1) + [x[-1]]  # two values: Q = 0 when d = 3
        points.append((k, 1 + i % min(3, k - 1), x))
    for k, d, x in points:
        unit = arnold_section(k, d, power_sum_vector(x, d))
        for j in (30, 350, 700):
            tiny = arnold_section(k, d, power_sum_vector([v / 2**j for v in x], d))
            assert tiny.solution.face == unit.solution.face, (k, d, x, j)
            assert tiny.solution.t == tuple(v * 2.0**-j for v in unit.solution.t), (k, d, x, j)
            assert tiny.x == tuple(v * 2.0**-j for v in unit.x)
            assert list(tiny.x) == sorted(tiny.x)


def _agreement_pool():
    """320 seeded (k, d, y, tol), d ≤ 3, eight kinds in turn: the diagonal
    (V = 0, any d), the (1, k−1) quadratic at d = 2, the interior of the
    (1, k−2, 1) cubic at d = 3, the boundary faces (k−1, 1) and (1, k−1)
    at d = 3 (Q = 0), a point below 2^-20, a point whose p_4 is near the
    float range, and power sums given as ints, strings or floats."""
    rng = random.Random(20261102)
    for i in range(320):
        kind, k, den = i % 8, rng.randint(4, 8), rng.choice([1, 3, 64])
        x = sorted(Fraction(rng.randint(-3 * den, 3 * den), den) for _ in range(k))
        d = 2 if kind == 1 else 3
        if kind == 0:
            x, d = [x[0]] * k, rng.randint(1, 3)
        elif kind == 3:
            x = [x[0]] + [x[-1] + 1] * (k - 1)
        elif kind == 4:
            x = [x[0] - 1] * (k - 1) + [x[-1]]
        elif kind == 5:
            x = [v / 2 ** rng.randint(25, 400) for v in x]
        elif kind == 6:
            x = [v * 10**75 for v in x]
        y = power_sum_vector(x, d)
        if kind == 7:
            form = (int, str, float)[i // 8 % 3]
            y = power_sum_vector([Fraction(round(v * den), 64 if form is float else 1)
                                  for v in x], d)
            y = [form(v) for v in y]
        yield kind, k, d, y, rng.choice([1e-9, 1e-6])


def test_closed_section_agrees_with_make_embed_and_next_power_sum():
    """The d ≤ 3 section computes its point, x and p_{d+1} in one pass of
    its own; the generic rules are the oracle.  On the ``_agreement_pool``,
    ``FibreSolution.make`` accepts each returned t with the same residual,
    ``Face.embed`` of t is x, and ``_next_power_sum`` is the value.  A point
    below 2^-20 is solved at y'_m = 2^(−m·e)·y_m with
    e = ⌊bitlen(Y_2)/2⌋ − bitlen(s) (Y and s from ``_PowerSums``), so there
    ``make`` sees 2^-e·t at y' and its residual is 2^-e times the one
    returned."""
    seen = {}
    for kind, k, d, y, tol in _agreement_pool():
        result = arnold_section(k, d, y, tol)
        sol = result.solution
        exact = [as_rational(v) for v in y]
        sums = fibres._PowerSums(exact)
        shift = sums.ints[1].bit_length() // 2 - sums.scale.bit_length() if d > 1 else 0
        if sol.face.length == 1 or shift >= -20:
            shift = 0
        floats = [float(v * 2 ** (-m * shift)) for m, v in enumerate(exact, start=1)]
        unit_t = tuple(math.ldexp(v, -shift) for v in sol.t)
        again = FibreSolution.make(sol.face, unit_t, floats, tol)
        assert (again.face, again.t) == (sol.face, unit_t), (k, d, y)
        assert again.residual == math.ldexp(sol.residual, -shift), (k, d, y)
        assert sol.face.embed(sol.t) == result.x, (k, d, y)
        assert fibres._next_power_sum(sol, d) == result.value, (k, d, y)
        assert (result.candidates, result.ambiguous, result.undecided_boxes) == (1, False, 0)
        seen.setdefault(kind, set()).add((d, sol.face.lam.parts, shift < 0))
    shapes = {kind: {(d, len(parts), parts[0]) for d, parts, _ in faces}
              for kind, faces in seen.items()}
    assert {(d, 1) for d, length, _ in shapes[0]} == {(1, 1), (2, 1), (3, 1)}
    assert {(d, length, top) for d, length, top in shapes[1]} == {(2, 2, 1)}
    assert {(d, length, top) for d, length, top in shapes[2]} == {(3, 3, 1)}
    assert {(d, length) for d, length, top in shapes[3]} == {(3, 2)}
    assert {top for _, _, top in shapes[3]} == {k - 1 for k in range(4, 9)}
    assert {(d, length, top) for d, length, top in shapes[4]} == {(3, 2, 1)}
    assert any(rescaled for _, parts, rescaled in seen[5] if len(parts) == 3)
    assert all(not rescaled for kind in (1, 2, 3, 4, 6, 7) for *_, rescaled in seen[kind])


@pytest.mark.parametrize("top", [50, 500, 5000])
def test_newton_stops_on_makes_rule_at_large_scale(top):
    """x = (−7, 0, 1/3, 11, T) at (k, d) = (5, 4): Newton stopped only when
    every absolute residual was ≤ tol/2, which the rounding of p_4 ≈ T^4
    alone exceeds, so no run landed; membership answered "undecided" after
    0.1–1 s and the section found no candidate.  Newton's stop (tol/2) and
    acceptance (tol) are now per equation and add ``make``'s rounding
    allowance."""
    x = [Fraction(v) for v in (-7, 0, Fraction(1, 3), 11, top)]
    y = power_sum_vector(x, 4)
    assert image_membership(5, 4, y) == INSIDE
    if top == 50:
        result = arnold_section(5, 4, y)
        assert (result.candidates, result.ambiguous, result.undecided_boxes) == (1, False, 0)
        assert result.value >= float(sum(v**5 for v in x))


def test_non_finite_power_sums_are_a_polynomial_error():
    """``as_rational`` let float infinities and NaN escape as a bare
    OverflowError or ValueError."""
    with pytest.raises(PolynomialError, match="Infinity"):
        image_membership(5, 4, [1, float("inf"), 1e300, 1e600])
    with pytest.raises(PolynomialError, match="NaN"):
        arnold_section(4, 3, [float("nan"), 1, 1])
    with pytest.raises(PolynomialError, match="abc"):
        arnold_section(4, 3, ["abc", 1, 1])


def test_section_at_large_scale_polishes_rounded_roots():
    """At x = (1000, 2000, 3000) the float rounding of p_2 ≈ 1.4e7 alone
    exceeds tol = 1e-9, so the closed-form root must meet the residual rule
    relative to the size of the power sums."""
    result = arnold_section(3, 2, power_sum_vector((1000, 2000, 3000), 2))
    assert result.solution.face.lam.parts == (1, 2)
    # V = 3·p_2 − p_1² = 6e6, u = 2000 + √(2V)/3 and v = 2000 − √(V/2)/3
    u, v = 2000 + math.sqrt(12e6) / 3, 2000 - math.sqrt(3e6) / 3
    assert result.value == pytest.approx(u**3 + 2 * v**3, rel=1e-12)
    x = (Fraction(1001, 7), Fraction(2002, 3), 3000, 3000)
    result = arnold_section(4, 3, power_sum_vector(x, 3))
    assert result.solution.face.lam.parts == (1, 2, 1)
    assert result.value >= sum(float(v) ** 4 for v in x)


def test_fibre_residual_forgives_the_rounding_of_large_power_sums():
    """x = (0, 0, 1/3, 5000): p_3 ≈ 1.25e11 has a float spacing of 1.5e-5, so
    no float fibre point meets an absolute tol = 1e-9.  The section found no
    candidate, and the exact one-part fibre of the diagonal x_i = 5000/3 at
    d = 4 was refused with a residual of 2^-8."""
    x = (0, 0, Fraction(1, 3), 5000)
    result = arnold_section(4, 3, power_sum_vector(x, 3))
    assert result.solution.face.lam.parts == (1, 2, 1)
    assert result.value >= sum(float(v) ** 4 for v in x)
    assert image_membership(4, 4, power_sum_vector([Fraction(5000, 3)] * 4, 4)) == "inside"
    # the scale only loosens large sums: near the origin tol stays absolute
    with pytest.raises(FibreError):
        FibreSolution.make(Face(C((1, 2))), (0.5, 0.25), (1.0, 0.375 + 2e-9), 1e-9)


def test_small_middle_root_beside_a_large_one_takes_newton_steps_not_sturm(monkeypatch):
    """x = (0, 0, 1/3, 10^j), j = 2..6: the cubic's middle root s ≈ 2/9 sits
    beside a root near 10^j, so Viète's guess misses its bracket by up to
    4e-6 (j = 6).  Exact Newton steps bring it into the bracket, with no
    Sturm bisection, and the section keeps its face and value."""
    fallbacks = []
    sturm_roots = fibres._sturm_roots
    monkeypatch.setattr(
        fibres, "_sturm_roots", lambda coeffs: fallbacks.append(coeffs) or sturm_roots(coeffs)
    )
    values = [100000002.20225666, 1000000000021.9557, 1.0000000000000218e16, 1e20, 1e24]
    for j, value in zip(range(2, 7), values):
        result = arnold_section(4, 3, power_sum_vector((0, 0, Fraction(1, 3), 10**j), 3))
        assert result.solution.face.lam.parts == (1, 2, 1)
        assert result.value == value
        assert result.solution.t[1] == pytest.approx(2 / 9, abs=1e-3)
    assert fallbacks == []


def test_fibre_residual_stays_absolute_near_a_face_boundary():
    """x = (1, 5, 5, 5.0001) lies 1e-4 from the face (3, 1), whose eliminant
    point misses p_3 ≈ 376 by about 4e-8: above tol = 1e-9 plus the rounding
    of p_3, so it is no candidate.  A residual rule of tol·max(1, p_3)
    accepted it, 6.7e-5 from x (beyond the √tol merge radius), and the two
    candidates' p_4 within 1e-6 of each other made the section ambiguous."""
    x = (1, 5, 5, Fraction(50001, 10000))
    result = arnold_section(4, 3, power_sum_vector(x, 3))
    assert result.candidates == 1 and not result.ambiguous
    assert result.solution.face.lam.parts == (1, 2, 1)
    assert result.x == pytest.approx([float(v) for v in x], abs=1e-9)


def test_one_part_face_beyond_d3_keeps_an_absolute_residual(monkeypatch):
    """y = (5000, 5e6, 5e9, 5e12 − 1): p_1 and p_2 force x = (1000, ..., 1000),
    whose p_4 is 5e12, so y is outside the image.  The (5) point t = 1000
    misses equation 4 by 1, inside the rounding allowance of ``make``
    (≈ 4.5 at that scale) but far above tol, and must not be a fibre point:
    it made membership "inside" and gave the section a candidate."""
    y = (5000, 5 * 10**6, 5 * 10**9, 5 * 10**12 - 1)
    assert solve_fibre(C((5,)), y) == fibres.FibreSearch((), 0)
    # the faces with ℓ ≥ 2 take minutes to search this close to the diagonal:
    # should the search be reached, they answer "undecided" here
    search = fibres.solve_fibre

    def one_part_only(lam, y, tol=1e-9):
        return search(lam, y, tol=tol) if lam.length == 1 else fibres.FibreSearch((), 1)

    monkeypatch.setattr(fibres, "solve_fibre", one_part_only)
    assert image_membership(5, 4, y) == OUTSIDE
    with pytest.raises(FibreError, match="outside"):
        arnold_section(5, 4, y)


def test_d4_search_skips_the_one_part_face_once_v_is_nonzero(monkeypatch):
    """x = (1, 1, 1, 1, 1 + 10^-5) has V = k·p_2 − p_1² = 4·10^-10 ≠ 0, so it
    is off the diagonal, the one point of the face (5).  That face's point
    t = y_1/5 still met tol in floats: membership answered "inside" from it,
    and the section answered face (5) with p_5 below p_5(x)."""
    x = (1, 1, 1, 1, 1 + Fraction(1, 10**5))
    y = power_sum_vector(x, 4)
    # the faces with ℓ ≥ 2 take about 25 s to search this close to the
    # diagonal: here they answer "undecided", and (5) is searched for real
    search = fibres.solve_fibre
    searched = []

    def one_part_only(lam, y, tol=1e-9):
        searched.append(lam.parts)
        return search(lam, y, tol=tol) if lam.length == 1 else fibres.FibreSearch((), 1)

    monkeypatch.setattr(fibres, "solve_fibre", one_part_only)
    assert image_membership(5, 4, y) == UNDECIDED
    with pytest.raises(FibreError, match="undecided"):
        arnold_section(5, 4, y)
    assert searched and (5,) not in searched


def test_d4_points_with_zero_variance_are_decided_on_the_diagonal(monkeypatch):
    """V = k·p_2 − p_1² = Σ_{i<j} (x_i − x_j)² = 0 forces x = (2, …, 2) at
    (p_1, p_2) = (10, 20), k = 5, so y is in the image iff p_3 = 40 and
    p_4 = 80.  The face search takes minutes this close to the diagonal;
    these points are decided in integers, with no search, in well under a
    second."""

    def no_search(*args, **kwargs):
        raise AssertionError("solve_fibre called")

    monkeypatch.setattr(fibres, "solve_fibre", no_search)
    start = time.perf_counter()
    for c in (2, 100, 1000, 10**4):
        y = (10, 20, 40, 80 - Fraction(1, c))
        assert image_membership(5, 4, y) == OUTSIDE
        with pytest.raises(FibreError, match="outside"):
            arnold_section(5, 4, y)
    assert image_membership(5, 4, (10, 20, 40, 80)) == INSIDE
    result = arnold_section(5, 4, (10, 20, 40, 80))
    assert result.solution.face.lam.parts == (5,)
    assert (result.candidates, result.ambiguous, result.undecided_boxes) == (1, False, 0)
    assert result.x == (2.0,) * 5 and result.value == 160.0
    assert time.perf_counter() - start < 1.0


def test_section_searches_faces_only_beyond_d3(monkeypatch):
    """d' ≤ 3 sections come from the eliminants alone; d' = 4 still searches."""

    def no_search(*args, **kwargs):
        raise AssertionError("solve_fibre called")

    monkeypatch.setattr(fibres, "solve_fibre", no_search)
    assert arnold_section(3, 2, (0, 1)).solution.face.lam.parts == (1, 2)
    x = (0, 0, 1, 2)
    result = arnold_section(4, 3, power_sum_vector(x, 3))
    assert result.undecided_boxes == 0
    assert result.value >= sum(v**4 for v in x) - 1e-9
    with pytest.raises(AssertionError, match="solve_fibre called"):
        arnold_section(5, 4, power_sum_vector((0, 0, 1, 2, 3), 4))


# Chamber points x ∈ ((1/32)ℤ ∩ [−2, 2])^k drawn with random.Random(7), three
# of them with a repeated coordinate, and the membership verdict and section
# (face, candidates, ambiguous, undecided boxes, repr of p_5) the face search
# gave for them; points that took over a second were left out.
_GOLDEN_D4 = [
    ((-13/8, -23/16, -13/16, 9/16, 37/32), (1, 1, 1, 2), 1, '-15.520633007340408'),
    ((-47/32, -21/16, -3/32, 43/32, 47/32), (1, 1, 1, 2), 1, '0.7967648929336946'),
    ((-49/32, -41/32, -33/32, -7/32, 11/8), (1, 1, 1, 2), 1, '-8.021024496062912'),
    ((-49/32, -5/4, -5/4, -3/8, 63/32), (1, 1, 1, 2), 1, '15.107464119805948'),
    ((-11/8, -1/16, -1/32, -1/32, 3/8, 31/16), (1, 3, 1, 1), 1, '22.644397128713347'),
    ((-23/16, -17/16, 9/32, 23/32, 43/32, 25/16), (1, 2, 1, 2), 1, '8.587867117110797'),
    ((-45/32, -45/32, 23/32, 25/32, 13/8, 63/32), (1, 2, 1, 2), 1, '31.286618437833233'),
    ((-49/32, -3/2, -47/32, -41/32, 5/32, 57/32), (1, 1, 1, 3), 1, '-8.36219133006897'),
]


@pytest.mark.parametrize("x, face, candidates, value", _GOLDEN_D4)
def test_d4_answers_are_pinned(x, face, candidates, value):
    """d' = 4 membership and sections search the faces; their answers at
    these points must not move when the search is restructured."""
    y = power_sum_vector([Fraction(v) for v in x], 4)
    assert image_membership(len(x), 4, y) == INSIDE
    result = arnold_section(len(x), 4, y)
    assert result.solution.face.lam.parts == face
    assert (result.candidates, result.ambiguous, result.undecided_boxes) == (candidates, False, 0)
    assert repr(result.value) == value


def test_comp_max_faces_are_maximal_in_comp_kd():
    for k, d in [(3, 2), (4, 2), (4, 3), (5, 3), (5, 4)]:
        tops = comp_max(k, d)
        for lam in comp_kd(k, d):
            assert any(precedes(lam, top) for top in tops)
