"""Polynomial core: exact arithmetic, parsing, intervals, elimination, block
degrees.

Expected values are computed inside each test by independent means (direct
integer arithmetic, sympy, or evaluation at random points) rather than by
calling the code under test twice.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, strategies as st

from orbit_betti.pipeline import _CompiledAtom
from orbit_betti.polys import (
    MAX_NESTING,
    MAX_PRODUCT_WORK,
    BlockSpec,
    ParseError,
    Polynomial,
    PolynomialError,
    SignAtom,
    as_rational,
    column_pivots,
    evaluate_formula,
    evaluate_polynomial,
    float_enclosure,
    interval_mul,
    interval_pow,
    interval_scale,
    multidegree,
    parse_formula,
    parse_polynomial,
    solve_columns,
)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

small_fractions = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=7
)


@st.composite
def polynomials(draw, max_vars=3, max_exp=3, max_terms=5):
    k = draw(st.integers(min_value=1, max_value=max_vars))
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n_terms):
        expo = tuple(
            draw(st.integers(min_value=0, max_value=max_exp)) for _ in range(k)
        )
        terms[expo] = draw(small_fractions)
    return Polynomial(k, terms)


def to_sympy(p: Polynomial, symbols):
    expr = sympy.Integer(0)
    for expo, coeff in p.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, e in zip(symbols, expo):
            term *= s**e
        expr += term
    return sympy.expand(expr)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_sum_of_shifted_squares_at_origin():
    """P = sum_i (x_i - 1)^2 (x_i - 2)^2 over three variables, at the origin.

    Independent arithmetic: each summand is (0-1)^2 * (0-2)^2 = 1 * 4 = 4,
    and there are three of them, so the value is 12.
    """
    expected = sum((0 - 1) ** 2 * (0 - 2) ** 2 for _ in range(3))
    assert expected == 12

    x = [Polynomial.variable(i, 3) for i in (1, 2, 3)]
    p = sum(((xi - 1) ** 2 * (xi - 2) ** 2 for xi in x), Polynomial.constant(0, 3))
    assert evaluate_polynomial(p, (0, 0, 0)) == 12
    # and the same polynomial via the parser
    q = parse_polynomial(
        "(x1-1)^2*(x1-2)^2 + (x2-1)^2*(x2-2)^2 + (x3-1)^2*(x3-2)^2", 3
    )
    assert q == p


def test_evaluate_is_exact_rational():
    p = parse_polynomial("1/3*x1^2 - 2/7*x2 + 5", 2)
    value = evaluate_polynomial(p, (Fraction(1, 2), Fraction(7, 3)))
    # by hand: (1/3)(1/4) - (2/7)(7/3) + 5 = 1/12 - 2/3 + 5 = 53/12
    assert value == Fraction(1, 12) - Fraction(2, 3) + 5
    assert value == Fraction(53, 12)


@given(polynomials(), st.data())
def test_sympy_agrees_on_evaluation(p, data):
    xs = [data.draw(small_fractions) for _ in range(p.var_count)]
    symbols = sympy.symbols(f"x1:{p.var_count + 1}")
    expr = to_sympy(p, symbols)
    expected = expr.subs(
        {s: sympy.Rational(v.numerator, v.denominator) for s, v in zip(symbols, xs)}
    )
    got = evaluate_polynomial(p, xs)
    # substituting rationals into a rational polynomial is already exact;
    # nsimplify would rewrite some rationals (e.g. 6859/80) as products of
    # irrational powers, so the comparison is made on the Rational itself
    assert expected.is_Rational
    assert sympy.Rational(got.numerator, got.denominator) == expected


@given(polynomials(), polynomials())
def test_sympy_agrees_on_products(p, q):
    k = max(p.var_count, q.var_count)
    # pad both into the same space by re-keying exponents
    p2 = Polynomial(k, {e + (0,) * (k - p.var_count): c for e, c in p.terms.items()})
    q2 = Polynomial(k, {e + (0,) * (k - q.var_count): c for e, c in q.terms.items()})
    symbols = sympy.symbols(f"x1:{k + 1}")
    assert to_sympy(p2 * q2, symbols) == sympy.expand(
        to_sympy(p2, symbols) * to_sympy(q2, symbols)
    )


@given(polynomials(max_vars=2, max_exp=2, max_terms=3), st.integers(0, 3))
def test_powers_match_repeated_products(p, n):
    direct = Polynomial.constant(1, p.var_count)
    for _ in range(n):
        direct = direct * p
    assert p**n == direct


@given(polynomials(), st.data())
def test_float_batch_matches_exact(p, data):
    """The grid's compiled float evaluator is close to the exact value, and
    within its own rounding band of it."""
    pts = [
        [data.draw(st.integers(-3, 3)) for _ in range(p.var_count)] for _ in range(4)
    ]
    atom = _CompiledAtom(SignAtom(p, ">="), 0, [3.0] * p.var_count)
    batch, bound = atom.evaluate(list(np.array(pts, dtype=float).T))
    for row, err, point in zip(batch, bound, pts):
        exact = evaluate_polynomial(p, point)
        assert row == pytest.approx(float(exact), abs=1e-9)
        assert abs(Fraction(row) - exact) <= Fraction(err)


def test_substitute():
    p = parse_polynomial("x1^3*x2 + 2*x2^2", 2)
    # substitute x1 -> t^2, x2 -> t + 1 (single variable t named x1)
    t = Polynomial.variable(1, 1)
    composed = p.substitute([t**2, t + 1])
    for value in (-2, -1, 0, 1, 2, 3):
        direct = evaluate_polynomial(p, (value**2, value + 1))
        assert evaluate_polynomial(composed, (value,)) == direct


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_round_trip_is_fixed_point():
    texts = [
        "x1^2 + x2^2 - 1",
        "2*x1*x2 - 3/4*x3 + 1/2",
        "x1",
        "0",
        "-x1 + 5",
        "x1^4 - 2*x1^2*x2^2 + x2^4",
    ]
    for text in texts:
        p = parse_polynomial(text, 3)
        assert parse_polynomial(p.to_text(), 3) == p
        # printing is stable under a second round trip
        assert parse_polynomial(p.to_text(), 3).to_text() == p.to_text()


def test_graded_lex_printing():
    p = parse_polynomial("x2 + x1 + x1*x2 + x1^2", 2)
    # degree-2 terms first (x1^2 before x1*x2 in lex), then degree-1
    assert p.to_text() == "x1^2 + x1*x2 + x1 + x2"


def test_parse_formula_structure_and_dedup():
    f = parse_formula("(x1 >= 0 and x1 <= 0) or x1^2 + x2^2 = 1", 2)
    assert f.k == 2
    assert f.root.kind == "or"
    atoms = f.atoms()
    assert [a.relation for a in atoms] == [">=", "<=", "="]
    # x1 appears in two atoms but once in the defining family
    assert f.s == 2
    texts = {p.to_text() for p in f.polynomial_set}
    assert texts == {"x1", "x1^2 + x2^2 - 1"}


def test_formula_rhs_constant_is_folded():
    f = parse_formula("x1^2 <= 3/2", 1)
    (atom,) = f.atoms()
    assert atom.poly == parse_polynomial("x1^2 - 3/2", 1)
    assert atom.relation == "<="


def test_and_binds_tighter_than_or():
    f = parse_formula("x1 >= 0 and x2 >= 0 or x1 = 0", 2)
    assert f.root.kind == "or"
    assert f.root.children[0].kind == "and"
    assert f.root.children[1].kind == "atom"


@pytest.mark.parametrize(
    "bad",
    [
        "not x1 >= 0",
        "x1 >= 0 and not x2 >= 0",
        "x1 > 0",
        "x1 < 0",
        "x1 >= x2",  # non-constant right-hand side
        "x1 >=",
        "x4 >= 0",  # out of range for k=3
        "x1 + >= 0",
        "y1 >= 0",
        "x1 >= 1/0",
    ],
)
def test_parse_rejections(bad):
    with pytest.raises(ParseError):
        parse_formula(bad, 3)


def test_parse_rejects_k_zero():
    with pytest.raises(ParseError):
        parse_formula("1 >= 0", 0)


def test_parse_error_carries_position():
    try:
        parse_formula("x1 >= 0 and not x2 >= 0", 2)
    except ParseError as err:
        assert err.position == len("x1 >= 0 and ")
    else:  # pragma: no cover
        pytest.fail("expected ParseError")


def test_nesting_limit_is_a_parse_error_at_the_extra_level():
    """Up to MAX_NESTING open "(" and unary "-" parse, in polynomials and in
    formulas; one more is a ParseError at the token that opens it."""
    n = MAX_NESTING
    at_limit = [
        ("(" * n + "x1" + ")" * n + " >= 0", "x1 >= 0"),
        ("(" * n + "x1 >= 0" + ")" * n, "x1 >= 0"),
        ("(" * (n - 1) + "x1 * -x2 >= 0" + ")" * (n - 1), "x1 * x2 <= 0"),
        ("x1 * " + "-" * n + "x2 >= 0", "x1 * x2 >= 0"),
    ]
    for text, plain in at_limit:
        f, g = parse_formula(text, 2), parse_formula(plain, 2)
        for point in [(1, 1), (1, -1), (-1, 1), (0, -1)]:
            assert evaluate_formula(f, point) == evaluate_formula(g, point), text
    cases = [
        ("(" * (n + 1) + "x1" + ")" * (n + 1) + " >= 0", n),
        ("(" * (n + 1) + "x1 >= 0" + ")" * (n + 1), n),
        ("x1 * " + "-" * (n + 1) + "x2 >= 0", len("x1 * ") + n),
    ]
    for text, position in cases:
        with pytest.raises(ParseError, match="nesting deeper") as err:
            parse_formula(text, 2)
        assert err.value.position == position


def test_product_work_limit_is_a_parse_error_before_the_product_is_formed():
    """Every product the parser forms, a power's squarings included, does at
    most MAX_PRODUCT_WORK = terms·terms·k exponent additions: a power whose
    expansion runs for seconds is refused at once, at its exponent."""
    for text in ("(x1 + x2 + x3 + 1)^30 >= 0", "(x1 + x2 + x3 + 1)^40 >= 0",
                 "(x1 + x2 + x3 + 1)^8 * (x1 + x2 + x3 + 1)^8 >= 0"):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="165 by 165 terms in 3 variables exceeds the parse limit"):
            parse_formula(text, 3)
        assert time.perf_counter() - start < 0.5, text
    with pytest.raises(ParseError) as err:
        parse_formula("(x1 + x2 + x3 + 1)^30 >= 0", 3)
    assert err.value.position == len("(x1 + x2 + x3 + 1)^")
    # the k = 32 degree-4 atom's one square, 32 by 32 terms in 32 variables, is within it
    assert 32**3 <= MAX_PRODUCT_WORK
    k = 32
    squares = " + ".join(f"x{i}^2" for i in range(1, k + 1))
    atom = parse_formula(f"({squares})^2 >= 0", k).atoms()[0]
    assert len(atom.poly.terms) == k * (k + 1) // 2


def test_a_unary_sign_binds_looser_than_a_power():
    """A sign after an operator reads like a leading one: -x1^2 is -(x1^2)
    wherever it stands (once read there as (-x1)^2)."""
    readings = {
        "2*-x1^2": "2*(-(x1^2))",
        "x1*-x2^2": "x1*(-(x2^2))",
        "1 - -x1^2": "1 - (-(x1^2))",
        "1 + -(x1)^2": "1 + (-((x1)^2))",
        "2^3 - -x2^0": "(2^3) - (-(x2^0))",
    }
    for text, conventional in readings.items():
        assert parse_polynomial(text, 2) == parse_polynomial(conventional, 2), text
    assert parse_polynomial("2*-x1^2", 2) == Polynomial(2, {(2, 0): Fraction(-2)})
    assert parse_polynomial("2^3 - -x2^0", 2) == Polynomial.constant(9, 2)


def test_every_unary_sign_is_a_prefix_and_opens_a_level():
    """A unary + is read after an operator as at the start, and every sign
    counts toward MAX_NESTING, a leading run too."""
    assert parse_polynomial("x1 * +x2 - +-x1", 2) == parse_polynomial("x1*x2 + x1", 2)
    n = MAX_NESTING
    assert parse_formula("-" * n + "x1 >= 0", 1) == parse_formula("x1 >= 0", 1)
    with pytest.raises(ParseError, match="nesting deeper") as err:
        parse_formula("-" * (n + 1) + "x1 >= 0", 1)
    assert err.value.position == n


# binding power of each node of a drawn tree, as the table in README's
# "Formula syntax" gives it; a leaf (variable or literal n/m) binds tightest
_LEVEL = {"+": 4, "-": 4, "*": 5, "neg": 6, "^": 7, "x": 8, "n": 8}


def _draw_poly(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return ("x", rng.randint(1, 3))
        return ("n", Fraction(rng.randint(0, 9), rng.choice([1, 1, 2, 3])))
    op = rng.choice(["+", "-", "*", "neg", "^"])
    if op == "neg":
        return (op, _draw_poly(rng, depth - 1))
    if op == "^":
        return (op, _draw_poly(rng, depth - 1), rng.randint(0, 2))
    return (op, _draw_poly(rng, depth - 1), _draw_poly(rng, depth - 1))


def _poly_text(tree, full):
    """The tree with every inner node parenthesised, or with only the
    parentheses the table needs."""
    op = tree[0]
    if op == "x":
        return f"x{tree[1]}"
    if op == "n":
        return str(tree[1])

    def operand(child, wrap):
        text = _poly_text(child, full)
        return f"({text})" if wrap and child[0] not in ("x", "n") else text

    if op == "neg":
        text = "-" + operand(tree[1], full or _LEVEL[tree[1][0]] < _LEVEL["neg"])
    elif op == "^":
        text = f"{operand(tree[1], True)}^{tree[2]}"
    else:
        level = _LEVEL[op]
        left = operand(tree[1], full or _LEVEL[tree[1][0]] < level)
        right = operand(tree[2], full or _LEVEL[tree[2][0]] <= level)
        text = f"{left} {op} {right}"
    return f"({text})" if full else text


def _poly_value(tree, x):
    op = tree[0]
    if op == "x":
        return x[tree[1] - 1]
    if op == "n":
        return tree[1]
    if op == "neg":
        return -_poly_value(tree[1], x)
    if op == "^":
        return _poly_value(tree[1], x) ** tree[2]
    a, b = _poly_value(tree[1], x), _poly_value(tree[2], x)
    return a + b if op == "+" else a - b if op == "-" else a * b


def _draw_formula(rng, depth, parent=None):
    if depth == 0 or rng.random() < 0.4:
        rhs = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        return ("atom", rng.choice([">=", "<=", "="]), _draw_poly(rng, 3), rhs)
    kind = "and" if parent == "or" else "or" if parent == "and" else rng.choice(["and", "or"])
    return (kind, [_draw_formula(rng, depth - 1, kind) for _ in range(rng.randint(2, 3))])


def _formula_text(tree, full):
    if tree[0] == "atom":
        rhs = f"-{-tree[3]}" if tree[3] < 0 else str(tree[3])
        text = f"{_poly_text(tree[2], full)} {tree[1]} {rhs}"
        return f"({text})" if full else text
    parts = []
    for child in tree[1]:
        text = _formula_text(child, full)
        parts.append(f"({text})" if child[0] == "or" and tree[0] == "and" and not full else text)
    text = f" {tree[0]} ".join(parts)
    return f"({text})" if full else text


def _formula_value(tree, x):
    if tree[0] == "atom":
        lhs, rhs = _poly_value(tree[2], x), tree[3]
        return lhs >= rhs if tree[1] == ">=" else lhs <= rhs if tree[1] == "<=" else lhs == rhs
    values = [_formula_value(child, x) for child in tree[1]]
    return all(values) if tree[0] == "and" else any(values)


def test_precedence_table_on_seeded_trees():
    """Seeded trees over x1..x3, literals n/m, + - *, unary minus, ^ 0..2 and
    and/or/relations: the text with the fewest parentheses the table allows
    and the fully parenthesised text parse to the same object, whose value
    at three rational points is the tree's own."""
    rng = random.Random(26)
    points = [(Fraction(1, 2), Fraction(-2), Fraction(3)),
              (Fraction(-3, 4), Fraction(5, 3), Fraction(0)),
              (Fraction(2), Fraction(1, 7), Fraction(-1, 2))]
    for _ in range(300):
        tree = _draw_poly(rng, 4)
        tight, full = _poly_text(tree, False), _poly_text(tree, True)
        poly = parse_polynomial(tight, 3)
        assert parse_polynomial(full, 3) == poly, (tight, full)
        for x in points:
            assert evaluate_polynomial(poly, x) == _poly_value(tree, x), tight
    for _ in range(150):
        tree = _draw_formula(rng, 3)
        tight, full = _formula_text(tree, False), _formula_text(tree, True)
        formula = parse_formula(tight, 3)
        assert parse_formula(full, 3).root == formula.root, (tight, full)
        for x in points:
            assert evaluate_formula(formula, x) == _formula_value(tree, x), tight


def test_formula_evaluation_truth_table():
    f = parse_formula("(x1 >= 0 and x2 >= 0) or x1^2 + x2^2 = 1", 2)
    assert evaluate_formula(f, (1, 1))  # first disjunct
    assert evaluate_formula(f, (0, -1))  # circle point, first disjunct fails
    assert not evaluate_formula(f, (-1, -1))
    assert evaluate_formula(f, (Fraction(3, 5), Fraction(4, 5)))  # exact circle point


def test_formula_text_round_trip():
    texts = [
        "x1 >= 0",
        "x1 >= 0 and x2 <= 0",
        "(x1 >= 0 or x2 >= 0) and x1^2 + x2^2 - 1 <= 0",
    ]
    for text in texts:
        f = parse_formula(text, 2)
        again = parse_formula(f.to_text(), 2)
        assert again.to_text() == f.to_text()
        for x in [(0, 0), (1, -1), (-1, 2), (Fraction(1, 2), Fraction(1, 3))]:
            assert evaluate_formula(f, x) == evaluate_formula(again, x)


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------


def _enclosed_interval(data):
    """A rational interval [lo, hi] drawn from ``small_fractions``, its
    outward float enclosure, and a rational point of it."""
    a, b = data.draw(small_fractions), data.draw(small_fractions)
    lo, hi = min(a, b), max(a, b)
    t = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=8))
    return (float_enclosure(lo)[0], float_enclosure(hi)[1]), lo + (hi - lo) * t


@given(st.data())
def test_interval_enclosure_is_sound(data):
    """The primitives the fibre solver's box tests compose: x^m, x·y, a·x
    and a·x^m·y stay inside their enclosures at rational points of rational
    intervals."""
    (a_lo, a_hi), x = _enclosed_interval(data)
    (b_lo, b_hi), y = _enclosed_interval(data)
    m = data.draw(st.integers(1, 6))
    a = float(data.draw(small_fractions))
    for (lo, hi), exact in (
        (interval_pow(a_lo, a_hi, m), x**m),
        (interval_mul(a_lo, a_hi, b_lo, b_hi), x * y),
        (interval_scale(a, a_lo, a_hi), Fraction(a) * x),
        (interval_mul(*interval_scale(a, *interval_pow(a_lo, a_hi, m)), b_lo, b_hi),
         Fraction(a) * x**m * y),
    ):
        assert Fraction(lo) <= exact <= Fraction(hi)


def test_float_enclosure_steps_out_only_when_rounded():
    assert float_enclosure(Fraction(3, 4)) == (0.75, 0.75)
    lo, hi = float_enclosure(Fraction(1, 3))
    assert Fraction(lo) < Fraction(1, 3) < Fraction(hi)
    assert np.nextafter(lo, 1.0) == float(Fraction(1, 3)) == np.nextafter(hi, 0.0)


def test_interval_even_power_across_zero():
    lo, hi = interval_pow(-2.0, 1.0, 2)
    assert lo == 0.0 and 4.0 <= hi < 4.0 + 1e-14


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------


def test_column_elimination_matches_sympy():
    """Rank and solve of the sparse elimination against sympy on random
    sparse Fraction matrices, a third of them with a dependent column."""
    rng = random.Random(20261018)
    inconsistent = 0
    for trial in range(90):
        n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 6)
        dense = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.4 else Fraction(0)
             for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        if trial % 3 == 0 and n_cols > 1:
            a, b = Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3), 3)
            for row in dense:
                row[-1] = a * row[0] + b * row[1 % (n_cols - 1)]
        columns = [
            {(i,): dense[i][j] for i in range(n_rows) if dense[i][j]} for j in range(n_cols)
        ]
        matrix = sympy.Matrix(dense)
        rank = matrix.rank()
        assert len(column_pivots(columns)) == rank

        weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n_cols)]
        reachable = [sum((w * row[j] for j, w in enumerate(weights)), Fraction(0)) for row in dense]
        drawn = [Fraction(rng.randint(-2, 2)) for _ in range(n_rows)]
        for values in (reachable, drawn):
            target = {(i,): v for i, v in enumerate(values) if v}
            solution = solve_columns(columns, target)
            if matrix.row_join(sympy.Matrix(values)).rank() > rank:
                inconsistent += 1
                assert solution is None
            else:
                assert solution is not None
                assert [sum(c * row[j] for j, c in enumerate(solution)) for row in dense] == values
    assert inconsistent > 0


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


def test_multidegree_by_hand():
    # p = x1^2 * x2 * x3 + x3^2 with blocks (2, 1): the first block owns
    # x1, x2 (combined exponent 3 in the leading term), the second owns x3.
    p = parse_polynomial("x1^2*x2*x3 + x3^2", 3)
    blocks = BlockSpec((2, 1), (3, 2))
    assert multidegree(p, blocks) == (3, 2)


def test_blockspec_derived_quantities():
    blocks = BlockSpec((3, 5), (4, 2))
    assert blocks.omega == 2
    assert blocks.total_vars == 8
    assert blocks.d_primes == (min(3, 4), min(5, 2))
    assert blocks.block_variables(0) == [1, 2, 3]
    assert blocks.block_variables(1) == [4, 5, 6, 7, 8]


def test_blockspec_validation():
    with pytest.raises(PolynomialError):
        BlockSpec((0,), (1,))
    with pytest.raises(PolynomialError):
        BlockSpec((2, 2), (1,))
    with pytest.raises(PolynomialError):
        BlockSpec((2,), (0,))


def test_multidegree_dimension_check():
    p = parse_polynomial("x1 + x2", 2)
    with pytest.raises(PolynomialError):
        multidegree(p, BlockSpec((3,), (2,)))


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------


def test_as_rational_accepts_strings_and_floats():
    assert as_rational("3/4") == Fraction(3, 4)
    assert as_rational(0.5) == Fraction(1, 2)
    assert as_rational(7) == Fraction(7)


@pytest.mark.parametrize("bad", ["1/0", None, [1, 2]])
def test_as_rational_rejects_with_a_polynomial_error(bad):
    with pytest.raises(PolynomialError):
        as_rational(bad)


def test_formula_builders():
    f = parse_formula("x1 >= 0 and x2 <= 0", 2)
    assert evaluate_formula(f, (1, -1))
    assert not evaluate_formula(f, (1, 1))
