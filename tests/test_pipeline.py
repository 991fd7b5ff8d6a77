"""Quotient pipeline: golden regions, cross-oracle agreement, bound values.

The three golden regions were worked out by hand in image coordinates
(y1, y2) = (p1, p2), where the image of the sorted chamber is exactly
{y1² ≤ k·y2}:

* sphere p2 = 1: the image slice is the segment y2 = 1, |y1| ≤ √3 — one
  contractible piece, so (b0, b1) = (1, 0);
* shell 1 ≤ p2 ≤ 2: {max(1, y1²/3) ≤ y2 ≤ 2} is a curved trapezoid — (1, 0);
* four lines (p1 = ±1/2) ∨ (p2 ∈ {1/2, 3/2}): two vertical rails crossing
  two horizontal rungs form exactly one cycle — (1, 1).
"""

import dataclasses
import gc
import json
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from orbit_betti import cubical, pipeline

from orbit_betti.cubical import BettiVector, build_cubical
from orbit_betti.pipeline import (
    BoundsReport,
    CheckResult,
    OrbitCount,
    PipelineError,
    ProblemSpec,
    bounds_report,
    direct_quotient_betti,
    orbit_count_finite,
    quotient_betti,
    vanishing_threshold,
    verify_report,
    _CompiledAtom,
    _QuotientOracle,
    _chamber_order,
    _compile,
    _formula_mask,
    _image_region,
)
from orbit_betti.fibres import image_conditions
from orbit_betti.polys import (
    BlockSpec,
    ClosedFormula,
    FormulaNode,
    Polynomial,
    SignAtom,
    evaluate_formula,
    evaluate_polynomial,
    parse_formula,
    parse_polynomial,
)
from orbit_betti.powersums import SymmetryError, rewrite_formula


def make_spec(k, d, text, box, h):
    return ProblemSpec(
        blocks=BlockSpec.single(k, d),
        formula=parse_formula(text, k),
        clip_box=tuple(box),
        resolution=Fraction(h),
    )


SPHERE = "x1^2 + x2^2 + x3^2 = 1"
SHELL = "x1^2 + x2^2 + x3^2 >= 1 and x1^2 + x2^2 + x3^2 <= 2"
FOUR_LINES = (
    "x1 + x2 + x3 = -1/2 or x1 + x2 + x3 = 1/2 "
    "or x1^2 + x2^2 + x3^2 = 1/2 or x1^2 + x2^2 + x3^2 = 3/2"
)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_problem_spec_validation():
    with pytest.raises(PipelineError):
        ProblemSpec(
            blocks=BlockSpec.single(2, 2),
            formula=parse_formula("x1 + x2 + x3 >= 0", 3),
            clip_box=((-1, 1), (0, 1)),
            resolution=Fraction(1, 4),
        )
    with pytest.raises(PipelineError):
        make_spec(3, 2, "x1 + x2 + x3 >= 0", [(-1, 1)], "1/4")  # box dim
    with pytest.raises(PipelineError):
        make_spec(3, 2, "x1 + x2 + x3 >= 0", [(1, 1), (0, 1)], "1/4")  # empty edge
    with pytest.raises(PipelineError):
        make_spec(3, 2, "x1 + x2 + x3 >= 0", [(-1, 1), (0, 1)], "0")
    with pytest.raises(PipelineError):
        # degree 3 polynomial under a degree-2 cap
        make_spec(3, 2, "x1^3 + x2^3 + x3^3 >= 0", [(-1, 1), (0, 1)], "1/4")


def test_quotient_rejects_asymmetric_formula():
    spec = make_spec(3, 2, "x1 >= 0", [(-1, 1), (0, 1)], "1/4")
    with pytest.raises(SymmetryError):
        quotient_betti(spec)


def test_quotient_rejects_large_image_dimension():
    spec = ProblemSpec(
        blocks=BlockSpec((3, 3), (3, 3)),
        formula=parse_formula("x1+x2+x3+x4+x5+x6 >= 0", 6),
        clip_box=tuple([(-1, 1)] * 6),
        resolution=Fraction(1, 4),
    )
    with pytest.raises(PipelineError):
        quotient_betti(spec)


# ---------------------------------------------------------------------------
# golden quotient computations
# ---------------------------------------------------------------------------


def test_sphere_quotient_is_contractible():
    spec = make_spec(3, 2, SPHERE, [(-2, 2), (0, 2)], "1/16")
    report = quotient_betti(spec)
    assert report.betti == (1, 0)
    assert report.stable
    assert report.vanishing_threshold == 2
    assert report.resolutions == (Fraction(1, 16), Fraction(1, 32))
    assert report.undecided_cells == 0


def test_shell_quotient_is_contractible():
    spec = make_spec(3, 2, SHELL, [(-3, 3), (0, 3)], "1/8")
    report = quotient_betti(spec)
    assert report.betti == (1, 0)
    assert report.stable


def test_four_lines_have_a_cycle():
    spec = make_spec(3, 2, FOUR_LINES, [(-3, 3), (-1, 3)], "1/16")
    report = quotient_betti(spec)
    assert report.betti == (1, 1)
    assert report.stable


def test_scale_invariance_of_sign_conditions():
    spec = make_spec(3, 2, SHELL, [(-3, 3), (0, 3)], "1/8")
    scaled = make_spec(
        3, 2,
        "3/2*x1^2 + 3/2*x2^2 + 3/2*x3^2 >= 3/2 and "
        "3/2*x1^2 + 3/2*x2^2 + 3/2*x3^2 <= 3",
        [(-3, 3), (0, 3)], "1/8",
    )
    assert quotient_betti(spec).betti == quotient_betti(scaled).betti


def test_redundant_tautology_atom_changes_nothing():
    base = make_spec(3, 2, SHELL, [(-3, 3), (0, 3)], "1/8")
    padded = make_spec(
        3, 2, SHELL + " and x1^2 + x2^2 + x3^2 + 1 >= 0",
        [(-3, 3), (0, 3)], "1/8",
    )
    assert quotient_betti(base).betti == quotient_betti(padded).betti


# ---------------------------------------------------------------------------
# direct chamber oracle
# ---------------------------------------------------------------------------


def test_direct_sphere_chamber_slice():
    spec = make_spec(3, 2, SPHERE, [(-2, 2), (0, 2)], "1/16")
    vec = direct_quotient_betti(spec, x_resolution=Fraction(1, 8))
    assert vec.values == (1, 0, 0, 0)


def test_direct_solid_ball():
    spec = make_spec(3, 2, "x1^2 + x2^2 + x3^2 <= 1", [(-2, 2), (0, 1)], "1/8")
    vec = direct_quotient_betti(spec, x_resolution=Fraction(1, 4))
    assert vec.values == (1, 0, 0, 0)


def test_direct_agrees_with_quotient_on_four_lines():
    spec = make_spec(3, 2, FOUR_LINES, [(-3, 3), (-1, 3)], "1/16")
    report = quotient_betti(spec)
    vec = direct_quotient_betti(spec, x_resolution=Fraction(1, 16))
    assert vec.values[:2] == report.betti == (1, 1)


def test_direct_requires_small_single_block():
    spec5 = ProblemSpec(
        blocks=BlockSpec.single(5, 2),
        formula=parse_formula("x1^2+x2^2+x3^2+x4^2+x5^2 <= 1", 5),
        clip_box=((-2, 2), (0, 1)),
        resolution=Fraction(1, 4),
    )
    with pytest.raises(PipelineError):
        direct_quotient_betti(spec5)
    multi = ProblemSpec(
        blocks=BlockSpec((2, 2), (2, 2)),
        formula=parse_formula("x1^2+x2^2 <= 1 and x3^2+x4^2 <= 1", 4),
        clip_box=((-2, 2), (0, 1), (-2, 2), (0, 1)),
        resolution=Fraction(1, 4),
    )
    with pytest.raises(PipelineError):
        direct_quotient_betti(multi)


def test_direct_needs_a_box_when_image_is_one_dimensional():
    spec = ProblemSpec(
        blocks=BlockSpec.single(3, 1),
        formula=parse_formula("x1 + x2 + x3 >= 0", 3),
        clip_box=((-1, 1),),
        resolution=Fraction(1, 4),
    )
    with pytest.raises(PipelineError):
        direct_quotient_betti(spec)
    vec = direct_quotient_betti(spec, x_box=[(-1, 1)] * 3, x_resolution=Fraction(1, 4))
    assert vec.values[0] == 1  # half-space slice of the cube is contractible


def test_direct_rejects_asymmetric_polynomials():
    spec = make_spec(3, 2, "x1 >= 0", [(-2, 2), (0, 1)], "1/4")
    with pytest.raises(PipelineError):
        direct_quotient_betti(spec, x_box=[(-1, 1)] * 3)


# ---------------------------------------------------------------------------
# orbit counting
# ---------------------------------------------------------------------------


def test_orbit_count_examples():
    assert orbit_count_finite([0, 1], 5) == OrbitCount(6, 6)
    assert orbit_count_finite([Fraction(1, 2)], 9).formula_value == 1
    assert orbit_count_finite(["1/3", "2/3", 1], 4) == OrbitCount(15, 15)


def test_orbit_count_formula_matches_enumeration():
    roots = [0, 1, Fraction(5, 2), -3]
    for r in range(1, 5):
        for k in range(1, 9):
            count = orbit_count_finite(roots[:r], k)
            assert count.agree, (r, k)


def test_orbit_count_validation():
    with pytest.raises(PipelineError):
        orbit_count_finite([1, 1], 3)
    with pytest.raises(PipelineError):
        orbit_count_finite([], 3)
    with pytest.raises(PipelineError):
        orbit_count_finite([0, 1], 0)
    with pytest.raises(PipelineError):
        orbit_count_finite(list(range(8)), 50)  # C(57,7) is way past the limit


# ---------------------------------------------------------------------------
# thresholds and bounds
# ---------------------------------------------------------------------------


def test_vanishing_threshold_values():
    assert vanishing_threshold(BlockSpec.single(10, 3)) == 3
    assert vanishing_threshold(BlockSpec((5, 7), (2, 9))) == 9
    assert vanishing_threshold(BlockSpec.single(3, 7)) == 3


def test_bounds_report_d2_k3():
    report = bounds_report(BlockSpec.single(3, 2), s=1)
    assert report.optm_algebraic == 18
    # sum over i in 0..3, j in 1..3-i of C(2,j) 6^j, times 18
    assert report.optm_closed == (48 + 48 + 12) * 18 == 1944
    assert report.F_value == 3
    # (c·s·d·d')^{d'} F = (1·1·2·2)^2 · 3
    assert report.thm_bound_form == 48
    assert report.chain_count_exact == 3
    assert report.vanishing_threshold == 2
    assert any("not pinned down" in note for note in report.notes)


def test_optm_closed_matches_the_double_loop():
    """The closed form of optm_closed against the published double sum,
    term by term, wherever that loop is cheap."""
    for k in range(1, 41):
        for s in range(1, 7):
            for d in (1, 2, 3):
                report = bounds_report(BlockSpec.single(k, d), s=s)
                loop = sum(
                    math.comb(s + 1, j) * 6**j * report.optm_algebraic
                    for i in range(k + 1)
                    for j in range(1, k - i + 1)
                )
                assert report.optm_closed == loop, (k, d, s)


def test_bounds_report_at_a_million_variables():
    """At s = 1 the inner sum is 0 at t = 0, 12 at t = 1 and 12 + 36 from
    t = 2 on; the report at k = 10^6 takes well under a second."""
    k = 10**6
    start = time.perf_counter()
    report = bounds_report(BlockSpec.single(k, 2), s=1)
    assert time.perf_counter() - start < 5.0
    assert report.optm_algebraic == 2 * 3 ** (k - 1)
    assert report.optm_closed == (12 + 48 * (k - 1)) * report.optm_algebraic


def test_bounds_beyond_the_int_digit_limit_are_written_as_exact_decimal_strings():
    """At k = 7000, d = 3, s = 2 three bounds pass Python's 4,300-digit
    int-to-str limit: they become strings of their digits, the rest stay ints,
    and the interpreter's limit is left as it was."""
    limit = sys.get_int_max_str_digits()
    report = bounds_report(BlockSpec.single(7000, 3), s=2)
    doc = json.loads(json.dumps(report.to_json()))
    assert sys.get_int_max_str_digits() == limit
    big = {"optm_algebraic", "optm_closed", "multi_degree_form"}
    assert {key for key, v in doc.items() if isinstance(v, str)} == big
    assert doc["thm_bound_form"] == report.thm_bound_form == 40824
    assert (doc["F_value"], doc["chain_count_exact"], doc["vanishing_threshold"]) == (7, 11, 3)
    sys.set_int_max_str_digits(0)
    try:
        for key in big:
            assert doc[key].isdigit() and int(doc[key]) == getattr(report, key)
    finally:
        sys.set_int_max_str_digits(limit)


def test_bounds_report_f_value_d4_k10():
    report = bounds_report(BlockSpec.single(10, 4), s=2)
    assert report.F_value == 105


def test_bounds_report_flags_chain_excess():
    # enumeration beats the closed form at (k, d) = (5, 3)
    report = bounds_report(BlockSpec.single(5, 3), s=1)
    assert report.F_value == 7
    assert report.chain_count_exact == 11
    assert any("authoritative" in note for note in report.notes)


def test_bounds_report_multi_block():
    blocks = BlockSpec((2, 3), (2, 2))
    report = bounds_report(blocks, s=2, constant_c=2.0)
    assert report.vanishing_threshold == 4
    assert report.optm_algebraic == 2 * 3**4
    assert report.F_value == 3 * 3
    assert report.multi_degree_form == 2**5 * 2**5 * 2**15 * (2**2 * 2**3)
    assert report.thm_bound_form > 0


def test_bounds_report_validation():
    with pytest.raises(PipelineError):
        bounds_report(BlockSpec.single(3, 2), s=0)
    with pytest.raises(PipelineError):
        bounds_report(BlockSpec.single(3, 2), s=1, constant_c=-1)
    for c in (math.nan, math.inf):
        with pytest.raises(PipelineError, match="finite and positive"):
            bounds_report(BlockSpec.single(3, 2), s=1, constant_c=c)


# ---------------------------------------------------------------------------
# verification checks
# ---------------------------------------------------------------------------


def test_verify_report_on_sphere():
    spec = make_spec(3, 2, SPHERE, [(-2, 2), (0, 2)], "1/16")
    report = quotient_betti(spec)
    direct = direct_quotient_betti(spec, x_resolution=Fraction(1, 8))
    checks = verify_report(report, direct)
    assert all(c.passed for c in checks)
    names = [c.name for c in checks]
    assert "direct_oracle_agreement" in names
    assert [c for c in checks if c.name == "betti_sum_within_bound_form"][0].informational


def test_verify_report_catches_fabricated_tail():
    """The vanishing row reads the x-space complex in R^3, whose degree 2 a
    fabricated (1, 0, 1, 0) fills; the image grid in R^2 cannot fail it."""
    spec = make_spec(3, 2, SPHERE, [(-2, 2), (0, 2)], "1/16")
    report = quotient_betti(spec)
    results = {c.name: c for c in verify_report(report, BettiVector((1, 0, 1, 0), 2))}
    assert results["vanishing_above_threshold"].passed is False
    assert results["vanishing_above_threshold"].detail == "ambient degrees >= 2 carry [1, 0]"
    assert results["direct_oracle_agreement"].passed is True


def test_verify_report_has_no_vanishing_row_without_the_x_space_vector():
    spec = make_spec(3, 2, SPHERE, [(-2, 2), (0, 2)], "1/16")
    checks = verify_report(quotient_betti(spec))
    assert [c.name for c in checks] == [
        "betti_sum_within_bound_form", "stable_across_resolutions", "no_undecided_cells",
    ]
    assert all(c.passed for c in checks)


def test_verify_report_counts_fine_and_coarse_undecided_cells():
    spec = make_spec(3, 2, SPHERE, [(-2, 2), (0, 2)], "1/16")
    good = quotient_betti(spec)
    for fine, coarse in ((0, 3), (2, 0)):
        bad = dataclasses.replace(good, undecided_cells=fine, coarse_undecided_cells=coarse)
        (row,) = [c for c in verify_report(bad) if c.name == "no_undecided_cells"]
        assert (row.passed, row.informational) == (False, False)
        assert row.detail == f"{fine} undecided cells at 1/32 and {coarse} at 1/16"


def test_report_json_round_trip_shape():
    spec = make_spec(3, 2, SPHERE, [(-2, 2), (0, 2)], "1/16")
    doc = quotient_betti(spec).to_json()
    assert doc["betti"] == [1, 0]
    assert doc["stable"] is True
    assert doc["bounds"]["optm_algebraic"] == 18
    assert "field" not in doc
    assert doc["full_betti"] == {"betti": [1, 0, 0], "euler": 1}
    assert doc["resolutions"] == [0.0625, 0.03125]


# ---------------------------------------------------------------------------
# exact decisions at float grid points
# ---------------------------------------------------------------------------


def _mask(formula, points):
    """``_formula_mask`` of the formula compiled at step h = 0, which keeps
    its equalities exact, with M_i the largest |x_i| of the points."""
    reach = np.abs(points).max(axis=0).tolist()
    return _formula_mask(_compile(formula.root, Fraction(0), reach, {}), points)


def _taus(node):
    """{P: τ} of the equality atoms of a compiled tree."""
    if isinstance(node, _CompiledAtom):
        return {node.atom.poly: node.tau} if node.atom.relation == "=" else {}
    return {p: tau for child in node[1] for p, tau in _taus(child).items()}


def test_formula_mask_decides_a_float_tie_exactly():
    """1/10·x1² − 3/10·x2 is exactly 0 at (3/4, 3/16); float gives +6.9e-18."""
    points = np.array([[0.75, 0.1875]])
    for relation in ("<=", ">="):
        formula = parse_formula(f"1/10*x1^2 - 3/10*x2 {relation} 0", 2)
        value, _ = _CompiledAtom(formula.atoms()[0], 0, [1.0, 1.0]).evaluate(list(points.T))
        assert value[0] != 0.0
        assert _mask(formula, points).tolist() == [True]


def test_formula_mask_keeps_the_thickening_exact():
    """|x1| ≤ τ, with τ the compiled atom's (h/2)·L_P at h = 1/5 (a fraction
    just above 1/10 with a factor 5 in its denominator, so no double), is
    false at the double just above τ and true at the one just below, although
    float(τ) is one of the two."""
    formula = parse_formula("x1 = 0", 1)
    root = _compile(formula.root, Fraction(1, 5), [1.0], {})
    tau = root.tau
    below = float(tau) if Fraction(float(tau)) < tau else np.nextafter(float(tau), 0.0)
    above = np.nextafter(below, 1.0)
    assert Fraction(below) < tau < Fraction(above)
    points = np.array([[above], [below], [-above], [below / 2], [2 * below]])
    assert _formula_mask(root, points).tolist() == [False, True, False, True, False]


def test_formula_mask_matches_exact_evaluation():
    formula = parse_formula(
        "1/10*x1^2 - 3/10*x2 <= 0 and x1*x2 - 1/4 >= 0 or x1 + x2 = 1", 2
    )
    grid = np.arange(-16, 17) / 8
    points = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    mask = _mask(formula, points)
    expected = [
        evaluate_formula(formula, [Fraction(v) for v in row]) for row in points.tolist()
    ]
    assert mask.tolist() == expected


# Polynomials with exact zeros at dyadic points where float evaluation is
# off (inexact coefficients), with zeros on lines, and with a square.
_WALK_POOL = (
    "1/10*x1^2 - 3/10*x2",
    "x1*x2 - 1/4",
    "x1 + x2 - 1",
    "1/3*x1 - 1/3*x2",
    "x1^2 + x2^2 - 5/4",
)


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        atom = SignAtom(
            parse_polynomial(rng.choice(_WALK_POOL), 2), rng.choice(["<=", ">=", "="])
        )
        return FormulaNode("atom", atom=atom)
    children = tuple(_random_tree(rng, depth - 1) for _ in range(rng.randint(2, 4)))
    return FormulaNode(rng.choice(["and", "or"]), children=children)


def _thickened(node, taus):
    """The same tree with each equality P = 0 spelled −τ ≤ P ≤ τ."""
    if node.kind != "atom":
        return FormulaNode(node.kind, children=tuple(_thickened(c, taus) for c in node.children))
    if node.atom.relation != "=":
        return node
    tau = taus[node.atom.poly]
    return FormulaNode("and", children=(
        FormulaNode("atom", atom=SignAtom(node.atom.poly - tau, "<=")),
        FormulaNode("atom", atom=SignAtom(node.atom.poly + tau, ">=")),
    ))


def test_short_circuit_walk_matches_exact_evaluation_on_nested_trees():
    """Seeded random and/or trees (nested both ways, 2–4 children, one
    polynomial in several atoms) at dyadic points, which hit exact ties, and
    at their one-ulp neighbours.  Each tree is compiled at a step h that
    thickens one of its equalities by exactly τ ∈ {0, 1/8, 1/10}; the others
    take their τ = (h/2)·L_P from the compiled atoms."""
    rng = random.Random(11)
    grid = np.arange(-8, 9) / 4
    base = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    ties = np.array([[0.75, 0.1875], [0.5, 0.5], [1.0, 0.25], [0.5, 1.0], [0.125, 0.875]])
    misses = np.concatenate([
        np.stack([ties[:, 0], np.nextafter(ties[:, 1], -np.inf)], axis=-1),
        np.stack([ties[:, 0], np.nextafter(ties[:, 1], np.inf)], axis=-1),
        np.stack([np.full(3, 0.5), 0.5 + np.array([0.1, -0.1, 0.125])], axis=-1),
    ])
    points = np.concatenate([base, ties, misses])
    exact_points = [[Fraction(v) for v in row] for row in points.tolist()]
    fixed = [
        "(x1 + x2 - 1 = 0 or x1*x2 - 1/4 >= 0) and 1/10*x1^2 - 3/10*x2 <= 0",
        "x1*x2 - 1/4 >= 0 and x1 + x2 - 1 <= 0 or 1/3*x1 - 1/3*x2 = 0 and x1 >= 0",
        "x1 + x2 - 1 >= 0 and x1 + x2 - 1 <= 0 and 1/10*x1^2 - 3/10*x2 >= 0",
    ]
    formulas = [parse_formula(text, 2) for text in fixed]
    while len(formulas) < 40:
        root = _random_tree(rng, 3)
        if root.kind != "atom":
            formulas.append(ClosedFormula(2, root))
    reach = [2.0, 2.0]
    for formula in formulas:
        equalities = sorted(
            {a.poly for a in formula.atoms() if a.relation == "="}, key=Polynomial.to_text
        )
        tau = rng.choice([Fraction(0), Fraction(1, 8), Fraction(1, 10)])
        h = Fraction(0)
        if equalities and tau:
            slope = _CompiledAtom(SignAtom(rng.choice(equalities), "="), h, reach).slope
            h = 2 * tau / Fraction(slope)
        root = _compile(formula.root, h, reach, {})
        expected_formula = ClosedFormula(2, _thickened(formula.root, _taus(root)))
        expected = [evaluate_formula(expected_formula, row) for row in exact_points]
        assert _formula_mask(root, points).tolist() == expected, formula.to_text()


def test_formula_walk_in_blocks_matches_one_walk(monkeypatch):
    """Blocks of ``_WALK_ROWS`` points, the last one short, give the truth
    values of a single walk over every point."""
    formula = parse_formula(
        "(x1 + x2 - 1 = 0 or x1*x2 - 1/4 >= 0) and 1/10*x1^2 - 3/10*x2 <= 0", 2
    )
    root = _compile(formula.root, Fraction(1, 4), [2.0, 2.0], {})
    points = np.random.default_rng(5).integers(-16, 17, (100, 2)) / 8
    monkeypatch.setattr(pipeline, "_WALK_ROWS", 10**6)
    whole = _formula_mask(root, points)
    monkeypatch.setattr(pipeline, "_WALK_ROWS", 7)
    assert _formula_mask(root, points).tolist() == whole.tolist()
    assert _formula_mask(root, points[:0]).shape == (0,)


def _power_chain(x, e):
    """x^e as the chain of e − 1 products x·x·…·x, left to right."""
    out = x
    for _ in range(e - 1):
        out = out * x
    return out


def _reference_values(poly, points):
    """Term-by-term float evaluation: Σ c·Πx_i^e from a zero sum, each term
    started as a full column of c, each power a chain of products."""
    out = np.zeros(len(points))
    for expo, coeff in poly.terms.items():
        term = np.full(len(points), float(coeff))
        for i, e in enumerate(expo):
            if e:
                term = term * _power_chain(points[:, i], e)
        out += term
    return out


def _reference_error_bound(poly, points):
    """The rounding band as 2γ_N times the |c| polynomial evaluated at |x|,
    plus N·(terms)·tiny, with N steps on the longest path of a term."""
    steps = 1 + len(poly.terms) + max(
        (sum(e + 1 for e in expo if e) for expo in poly.terms), default=0
    )
    gamma = steps * 2.0**-53 / (1 - steps * 2.0**-53)
    magnitude = _reference_values(
        Polynomial(poly.var_count, {expo: abs(c) for expo, c in poly.terms.items()}),
        np.abs(points),
    )
    return 2 * gamma * magnitude + steps * len(poly.terms) * np.finfo(float).tiny


_D3_CONDITION = image_conditions(4, 3, 3, 0)[0]


def test_compiled_atom_matches_the_term_by_term_reference():
    """One pass over the terms gives the values of the term-by-term
    evaluation, equal as floats (the reference's zero start turns a −0.0 sum
    into +0.0, which no sign test tells apart), and a band never below the
    |c|-at-|x| reference, on 600 seeded points with negative coordinates."""
    rng = np.random.default_rng(14)
    points = np.concatenate([
        rng.uniform(-3, 3, (300, 3)),
        rng.integers(-24, 25, (200, 3)) / 8,
        rng.uniform(-1e-3, 1e-3, (50, 3)),
        rng.uniform(-40, 40, (50, 3)),
    ])
    polys = [
        parse_polynomial(text, 3)
        for text in (
            "1/10*x1^2 - 3/10*x2",
            "x1^6 - 1/3*x2^5*x3 + 7/10*x1^3*x2^2*x3 - x3^4 + 1/10",
            "-x1^5 + 2/7*x2^3*x3^2 - x1*x2*x3 - 5",
            "x1 - x2",
            "-1/10*x3",
        )
    ] + [_D3_CONDITION]
    for poly in polys:
        value, bound = _CompiledAtom(SignAtom(poly, ">="), 0, [40.0] * 3).evaluate(list(points.T))
        assert np.array_equal(value, _reference_values(poly, points)), poly.to_text()
        assert np.all(bound >= _reference_error_bound(poly, points)), poly.to_text()


def test_slope_is_a_sound_lipschitz_bound():
    """Seeded random polynomials on rational boxes (endpoints that are not
    doubles included): at rational points x and c of the box, corners
    included, |P(x) − P(c)| ≤ L_P·‖x − c‖∞ in exact fractions, with L_P the
    ``slope`` of the atom the oracle compiles; an equality's τ is (h/2)·L_P,
    and h/2 when L_P is 0."""
    rng = random.Random(23)
    h = Fraction(1, 6)
    polys = [Polynomial.constant(3, 2), Polynomial(1)]
    while len(polys) < 80:
        n = rng.randint(1, 3)
        polys.append(Polynomial(n, {
            tuple(rng.randint(0, 3) for _ in range(n)): Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            for _ in range(rng.randint(1, 5))
        }))
    flat = 0
    for poly in polys:
        box = []
        for _ in range(poly.var_count):
            lo = Fraction(rng.randint(-12, 12), rng.randint(1, 5))
            box.append((lo, lo + Fraction(rng.randint(1, 12), rng.randint(1, 5))))
        formula = ClosedFormula(poly.var_count, FormulaNode("atom", atom=SignAtom(poly, "=")))
        atom = _QuotientOracle(formula, box, h, []).root
        slope = Fraction(atom.slope)
        assert atom.tau == (h / 2 * slope if slope else h / 2)
        flat += slope == 0
        for _ in range(20):
            x, c = (
                [lo + (hi - lo) * rng.choice([Fraction(0), Fraction(1), Fraction(rng.randint(0, 45), 45)])
                 for lo, hi in box]
                for _ in range(2)
            )
            gap = max(abs(a - b) for a, b in zip(x, c))
            assert abs(evaluate_polynomial(poly, x) - evaluate_polynomial(poly, c)) <= slope * gap
    assert flat >= 2


def test_formula_mask_decides_the_d3_condition_at_its_exact_zeros():
    """The degree-6 d' = 3 condition of k = 4 vanishes exactly at the power
    sums of (a, a, a, b), which are dyadic for dyadic a, b; the mask agrees
    with ``evaluate_formula`` there, one ulp off in p3, and at other
    chamber points."""
    rng = np.random.default_rng(6)
    a, b = rng.integers(-16, 17, (2, 150)) / 8
    c, d = rng.integers(-16, 17, (2, 150)) / 8
    zeros = np.stack([3 * a**m + b**m for m in (1, 2, 3)], axis=-1)
    inner = np.stack([2 * a**m + c**m + d**m for m in (1, 2, 3)], axis=-1)
    points = np.concatenate([
        zeros,
        np.column_stack([zeros[:, :2], np.nextafter(zeros[:, 2], np.inf)]),
        np.column_stack([zeros[:, :2], np.nextafter(zeros[:, 2], -np.inf)]),
        inner,
    ])
    exact_points = [[Fraction(v) for v in row] for row in points.tolist()]
    assert all(evaluate_polynomial(_D3_CONDITION, row) == 0 for row in exact_points[:150])
    for relation in (">=", "<=", "="):
        formula = ClosedFormula(3, FormulaNode("atom", atom=SignAtom(_D3_CONDITION, relation)))
        mask = _mask(formula, points)
        assert mask.tolist() == [evaluate_formula(formula, row) for row in exact_points]


def test_chamber_oracle_keeps_the_diagonal_and_drops_one_ulp_below():
    """The x-space region's order atoms x_{i+1} − x_i ≥ 0 decide exactly as
    ``np.diff(points) >= 0`` does: ties on the diagonal are inside, one ulp
    below them outside."""
    formula = parse_formula("x1^2 + x2^2 + x3^2 <= 100", 3)
    box = [(Fraction(-4), Fraction(4))] * 3
    oracle = _QuotientOracle(formula, box, Fraction(1, 4), _chamber_order(3))
    rng = np.random.default_rng(2)
    values = np.concatenate([rng.integers(-16, 17, 60) / 8, [0.1, 1 / 3, -0.0, 0.0]])
    a, b = rng.choice(values, 400), rng.choice(values, 400)
    below = np.nextafter(a, -np.inf)
    points = np.concatenate([
        np.stack([a, a, np.maximum(a, b)], axis=-1),
        np.stack([np.minimum(a, b), a, a], axis=-1),
        np.stack([a, below, np.maximum(a, b)], axis=-1),
        np.stack([below, a, below], axis=-1),
        rng.choice(values, (400, 3)),
    ])
    codes = oracle.batch(points)
    assert codes[:800].tolist() == [1] * 800
    assert codes[800:1600].tolist() == [0] * 800
    assert codes.tolist() == np.all(np.diff(points, axis=1) >= 0.0, axis=1).astype(int).tolist()


def test_moment_mask_matches_fractions():
    """The d' = 2 image condition k·p2 − p1² ≥ 0 through ``_formula_mask``
    against fractions, with ties, one ulp below a tie and p2 = −0.0."""
    condition = image_conditions(3, 2, 2, 0)[0]
    formula = ClosedFormula(2, FormulaNode("atom", atom=SignAtom(condition, ">=")))
    rng = np.random.default_rng(3)
    p1 = np.concatenate([rng.integers(-64, 65, 400) / 16, [0.75, 0.75, 0.0, -3.0]])
    p2 = np.concatenate([
        rng.integers(-8, 200, 400) / 64,
        [0.1875, np.nextafter(0.1875, 0.0), -0.0, 3.0],
    ])
    mask = _mask(formula, np.stack([p1, p2], axis=-1))
    expected = [
        b >= 0 and a * a <= 3 * b
        for a, b in zip(map(Fraction, p1.tolist()), map(Fraction, p2.tolist()))
    ]
    assert mask.tolist() == expected
    assert mask[-4:].tolist() == [True, False, True, True]


def test_quotient_oracle_matches_exact_image_for_d2():
    """The vectorised oracle against an inline fraction test of the image
    p1² ≤ 3·p2, on two blocks (d' = 2 and d' = 1) with points on the
    boundary p1² = 3·p2."""
    blocks = BlockSpec((3, 2), (2, 1))
    formula = parse_formula("x1^2 + x2^2 + x3^2 <= 4", 5)
    box = [(Fraction(-4), Fraction(4)), (Fraction(-1), Fraction(4)), (Fraction(-2), Fraction(2))]
    oracle = _QuotientOracle(rewrite_formula(formula, blocks), box, Fraction(1, 8), *_image_region(blocks))
    rng = np.random.default_rng(5)
    p1 = rng.integers(-32, 33, 300) / 8
    points = np.stack([p1, p1 * p1 / 3, rng.integers(-16, 17, 300) / 8], axis=-1)
    points[::2, 1] += rng.integers(-2, 3, 150) / 64
    codes = oracle.batch(points)
    for row, code in zip(points.tolist(), codes.tolist()):
        y1, y2 = Fraction(row[0]), Fraction(row[1])
        assert code == int(y2 <= 4 and y1 * y1 <= 3 * y2)


def test_quotient_oracle_searches_fibres_only_for_d4_blocks(monkeypatch):
    """A d' = 4 block: points that fail the formula or the image condition
    on (p1, p2, p3) are outside without a fibre search; the rest go to
    image_membership once per point."""
    blocks = BlockSpec.single(5, 4)
    formula = parse_formula("x1 + x2 + x3 + x4 + x5 <= 2", 5)
    box = [(Fraction(-4), Fraction(4))] * 4
    oracle = _QuotientOracle(rewrite_formula(formula, blocks), box, Fraction(1, 4), *_image_region(blocks))
    asked = []

    def membership(k, d, y):
        asked.append((k, d, tuple(y)))
        return "undecided"

    monkeypatch.setattr(pipeline, "image_membership", membership)
    # power sums of (0, 0, 0, 0, 1), of (0, 0, 0, 1, 1); (0, 1, 1, 0) fails
    # the condition (9·5³ < 4·25²); p1 = 3 fails the formula
    points = np.array([[1.0, 1, 1, 1], [2, 2, 2, 2], [0, 1, 1, 0], [3, 3, 3, 3]])
    assert oracle.batch(points).tolist() == [2, 2, 0, 0]
    assert asked == [(5, 4, (1.0, 1.0, 1.0, 1.0)), (5, 4, (2.0, 2.0, 2.0, 2.0))]


def test_formula_mask_frees_its_arrays_on_return():
    """Nothing of a call on 10^6 points outlives it, even with the cyclic
    garbage collector off: the per-polynomial value and error arrays
    (8 MB each) are released by reference counting alone."""
    formula = parse_formula("x1^2 + x2^2 <= 1 and x1 + x2 = 0 or x1*x2 >= 1/4", 2)
    points = np.random.default_rng(1).uniform(-2, 2, (10**6, 2))
    root = _compile(formula.root, Fraction(1, 4), [2.0, 2.0], {})
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _formula_mask(root, points)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert after - before < 2**20


# ---------------------------------------------------------------------------
# d' = 3 golden regions (k = 4, h = 1/4): the image test is exact, so the
# grid never calls the fibre solver
# ---------------------------------------------------------------------------

BALL4 = "x1^2 + x2^2 + x3^2 + x4^2 <= 1"
SHELL4 = "x1^2 + x2^2 + x3^2 + x4^2 >= 1/2 and x1^2 + x2^2 + x3^2 + x4^2 <= 3/2"
SLABS4 = "(x1 + x2 + x3 + x4 = -1/2 or x1 + x2 + x3 + x4 = 1/2) and " + BALL4
FOUR_LINES4 = (
    "x1 + x2 + x3 + x4 = -1/2 or x1 + x2 + x3 + x4 = 1/2 "
    "or x1^2 + x2^2 + x3^2 + x4^2 = 1/2 or x1^2 + x2^2 + x3^2 + x4^2 = 3/2"
)


def _no_membership(*args, **kwargs):
    raise AssertionError("the d' = 3 grid called image_membership")


@pytest.mark.parametrize(
    "text, box",
    [(BALL4, [(-2, 2), (0, 2), (-2, 2)]), (SHELL4, [(-3, 3), (0, 2), (-2, 2)])],
    ids=["ball", "shell"],
)
def test_d3_golden_against_direct_oracle(monkeypatch, text, box):
    monkeypatch.setattr(pipeline, "image_membership", _no_membership)
    spec = make_spec(4, 3, text, box, "1/4")
    report = quotient_betti(spec)
    assert report.betti == (1, 0, 0)
    assert report.stable
    assert (report.undecided_cells, report.coarse_undecided_cells) == (0, 0)
    direct = direct_quotient_betti(spec, x_box=[(-2, 2)] * 4, x_resolution=Fraction(1, 4))
    assert direct.values[:3] == report.betti


@pytest.mark.parametrize(
    "text, box, expected",
    [
        (SLABS4, [(-1, 1), (0, 2), (-2, 2)], (2, 0)),
        (FOUR_LINES4, [(-3, 3), (0, 2), (-3, 3)], (1, 1)),
    ],
    ids=["slabs", "four-lines"],
)
def test_d3_golden_against_the_d2_image(monkeypatch, text, box, expected):
    """The formula uses p1 and p2 only, so its quotient is computed again in
    the (p1, p2) image.  The direct x-space oracle is no check here: on
    these thickened hyperplanes it gives lattice artefacts, (1, 62, 0, 0, 0)
    for the slabs at x-resolution 1/8."""
    monkeypatch.setattr(pipeline, "image_membership", _no_membership)
    report = quotient_betti(make_spec(4, 3, text, box, "1/4"))
    assert report.betti == expected + (0,)
    assert report.stable
    assert (report.undecided_cells, report.coarse_undecided_cells) == (0, 0)
    assert quotient_betti(make_spec(4, 2, text, box[:2], "1/4")).betti == expected


# ---------------------------------------------------------------------------
# tiles: build_cubical settles whole tiles from one oracle call at radius r
# ---------------------------------------------------------------------------


class _CellByCell:
    """The oracle with no tile settled: build_cubical asks it about every
    cell centre at radius 0."""

    def __init__(self, oracle):
        self.oracle = oracle

    def batch(self, points, radius=0.0):
        if radius:
            return np.full(len(points), 2, dtype=np.int8)
        return self.oracle.batch(points)


def _settled_tiles_change_nothing(oracle, box, h):
    """Build the grid with tiles and cell by cell; the top-cell masks and
    undecided counts must be equal.  Returns the number of tiles settled."""
    settled = []

    class Tiled:
        def batch(self, points, radius=0.0):
            codes = oracle.batch(points, radius)
            if radius:
                settled.append(int(np.count_nonzero(codes != 2)))
            return codes

    tiled = build_cubical(Tiled(), box, h)
    cells = build_cubical(_CellByCell(oracle), box, h)
    assert tiled.top.tobytes() == cells.top.tobytes()
    assert tiled.undecided_cells == cells.undecided_cells
    return sum(settled)


def _image_grids(spec):
    """The image-space oracle, box and step of both resolutions of a spec."""
    rewritten = rewrite_formula(spec.formula, spec.blocks)
    region = _image_region(spec.blocks)
    for h in (spec.resolution, spec.resolution / 2):
        yield _QuotientOracle(rewritten, spec.clip_box, h, *region), spec.clip_box, h


# The quotient-d2 jobs of bench/workloads.py: formula, p1 edge, p2 edge, h,
# and the p1 shift in cells each job takes at seeds 1, 1000 and 2000.
_D2_JOBS = [
    (SPHERE, (-2, 2), (0, 2), Fraction(1, 64), (4, 3, 1)),
    ("x1^2 + x2^2 + x3^2 <= 1", (-2, 2), (0, 2), Fraction(1, 64), (4, 2, -1)),
    (SHELL, (-2, 2), (0, 2), Fraction(1, 64), (4, 0, -4)),
    (FOUR_LINES, (-3, 3), (-1, 3), Fraction(1, 32), (4, -4, -1)),
]


@pytest.mark.parametrize("seed", [0, 1, 2], ids=["seed1", "seed1000", "seed2000"])
def test_tiles_leave_the_quotient_d2_bitmaps_unchanged(seed):
    for text, (lo1, hi1), p2, h, shifts in _D2_JOBS:
        shift = shifts[seed] * h
        spec = make_spec(3, 2, text, [(lo1 + shift, hi1 + shift), p2], h)
        assert sum(_settled_tiles_change_nothing(*grid) for grid in _image_grids(spec)) > 0


@pytest.mark.parametrize(
    "k, d, text, box, h, settles",
    [
        (4, 3, "x1 + x2 + x3 + x4 = 0 and x1^2 + x2^2 + x3^2 + x4^2 = 1",
         [(Fraction(-1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(3, 2)), (0, Fraction(3, 4))],
         "1/4", False),
        (4, 3, BALL4, [(-2, 2), (0, 2), (-2, 2)], "1/8", True),
        (4, 3, SHELL4, [(-3, 3), (0, 2), (-2, 2)], "1/4", True),
        (4, 3, SLABS4, [(-1, 1), (0, 2), (-2, 2)], "1/4", True),
        (4, 4, BALL4, [(-2, 2), (0, 8), (-2, 2), (0, 4)], "1", True),
    ],
    ids=["fibre-d3", "ball-h8", "shell4", "slabs4", "searched-d4"],
)
def test_tiles_leave_image_space_bitmaps_unchanged(k, d, text, box, h, settles):
    """Every top-cell mask and undecided count equals the cell-by-cell build; the
    d' = 4 grid goes through the fibre search, where a tile is never
    settled inside.  The fibre-d3 grid of the benchmark is too small for
    any of its tiles to settle."""
    spec = make_spec(k, d, text, box, h)
    settled = sum(_settled_tiles_change_nothing(*grid) for grid in _image_grids(spec))
    assert (settled > 0) == settles


def test_tiles_leave_an_x_space_bitmap_unchanged():
    formula = parse_formula("x1^2 + x2^2 + x3^2 <= 1 and x1 + x2 + x3 >= 1/4", 3)
    box = [(Fraction(-2), Fraction(2))] * 3
    h = Fraction(1, 8)
    oracle = _QuotientOracle(formula, box, h, _chamber_order(3))
    assert _settled_tiles_change_nothing(oracle, box, h) > 0


def test_a_searched_block_never_settles_a_tile_inside(monkeypatch):
    """At radius r > 0 the fibre search is never asked, and a point whose
    neighbourhood passes the formula and the d' = 3 conditions is not
    settled; one that fails them is outside."""
    blocks = BlockSpec.single(5, 4)
    formula = parse_formula("x1 + x2 + x3 + x4 + x5 <= 2", 5)
    box = [(Fraction(-4), Fraction(4))] * 4
    oracle = _QuotientOracle(rewrite_formula(formula, blocks), box, Fraction(1, 4), *_image_region(blocks))
    monkeypatch.setattr(pipeline, "image_membership", _no_membership)
    points = np.array([[1.0, 1, 1, 1], [3.5, 3, 3, 3]])
    assert oracle.batch(points, 1e-3).tolist() == [2, 0]


def test_tile_codes_agree_with_exact_evaluation_at_every_cell_centre(monkeypatch):
    """Seeded and/or trees over the pool polynomials.  A tree with a linear
    equality P (x1 + x2 − 1 or 1/3·x1 − 1/3·x2, whose slope does not depend
    on the box) takes the step h = 2τ/L_P, τ ∈ {1/8, 1/10}, so that its
    band edge is exactly τ, and a box whose cell centres include a point
    with P = ±τ: every centre on that line is a tie.  The other trees take
    h = 1/8, where the pool's zeros fall on the centres, multiples of 1/8.
    The clip boxes are shifted by whole cells, so tiles start at other
    centres.  Wherever the oracle settles a tile, the exact thickened
    formula has that value at each of the tile's cell centres, ties
    included, and ties are met.  The grids are tiled whatever their
    size."""
    monkeypatch.setattr(cubical, "_TILED_CELLS", 0)
    rng = random.Random(19)
    linear = {parse_polynomial(text, 2): text for text in ("x1 + x2 - 1", "1/3*x1 - 1/3*x2")}
    settled = {0: 0, 1: 0}
    trees = ties = 0
    while trees < 40:
        root = _random_tree(rng, 3)
        if root.kind == "atom":
            continue
        trees += 1
        formula = ClosedFormula(2, root)
        counts = [rng.randint(9, 22), rng.randint(9, 22)]
        equalities = sorted(
            {a.poly for a in formula.atoms() if a.relation == "=" and a.poly in linear},
            key=Polynomial.to_text,
        )
        if equalities:
            poly = rng.choice(equalities)
            tau = rng.choice([Fraction(1, 8), Fraction(1, 10)]) * rng.choice([-1, 1])
            h = 2 * abs(tau) / Fraction(_CompiledAtom(SignAtom(poly, "="), 0, [1.0, 1.0]).slope)
            a = Fraction(rng.randint(-8, 8), 8)
            tie = [a, 1 + tau - a] if linear[poly] == "x1 + x2 - 1" else [a, a - 3 * tau]
            assert evaluate_polynomial(poly, tie) == tau
            lows = [c - (rng.randrange(m) + Fraction(1, 2)) * h for c, m in zip(tie, counts)]
        else:
            h = Fraction(1, 8)
            lows = [Fraction(rng.randint(-16, -4), 8) - h / 2 for _ in counts]
        box = [(lo, lo + m * h) for lo, m in zip(lows, counts)]
        oracle = _QuotientOracle(formula, box, h, [])
        seen = []

        class Recording:
            def batch(self, points, radius=0.0):
                codes = oracle.batch(points, radius)
                seen.append((np.array(points), radius, codes))
                return codes

        build_cubical(Recording(), box, h)
        tiles, radius, codes = seen[0]
        assert radius > 0
        taus = _taus(oracle.root)
        thickened = ClosedFormula(2, _thickened(formula.root, taus))
        tile_counts = [math.ceil(m / 4) for m in counts]
        for (t1, t2), code in zip(np.ndindex(*tile_counts), codes.tolist()):
            if code == 2:
                continue
            settled[code] += 1
            for i in range(4 * t1, min(4 * t1 + 4, counts[0])):
                for j in range(4 * t2, min(4 * t2 + 4, counts[1])):
                    centre = [lows[0] + h / 2 + i * h, lows[1] + h / 2 + j * h]
                    assert evaluate_formula(thickened, centre) == (code == 1)
                    ties += sum(abs(evaluate_polynomial(p, centre)) == t for p, t in taus.items())
    assert ties > 0
    assert settled[0] > 100 and settled[1] > 100
