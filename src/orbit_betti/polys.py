"""Exact sparse multivariate polynomials, closed sign formulas, float interval
arithmetic and exact elimination.

Everything symbolic in this package flows through :class:`Polynomial`:
coefficients are exact ``fractions.Fraction`` values, terms are kept in a
sparse exponent-tuple map, and the printable form uses a graded-lexicographic
term order so that equal polynomials have equal strings (deduplication of the
defining family of a formula is syntactic).

Formulas are *closed*: atoms are ``P >= 0``, ``P <= 0`` or ``P = 0`` combined
with ``and`` / ``or`` only.  Negations and strict inequalities are rejected at
parse time — the sets we feed to the homology stages must be closed, and the
quotient theory downstream is stated for exactly this class.  One
precedence-climbing pass reads polynomials and formulas alike, on one table
of binding powers: or < and < relations < + − < * < unary sign < ^ (README,
*Formula syntax*).

The package's one interval arithmetic (directed-rounding floats: the fibre
solver's box tests) and its one exact elimination (a sparse ``Fraction``
column reduction: the power-sum rewrite's solve, the ranks over Q) live here
too.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

RationalLike = Union[Fraction, int, str, float]

RELATIONS = (">=", "<=", "=")
_INF = math.inf


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ints, strings like ``"3/4"``, and floats to exact fractions.

    Floats are converted via ``Fraction(value)`` (exact binary value), which
    is what callers holding grid coordinates want.  A zero denominator, a
    malformed string, a non-finite float or a value of another type is a
    :class:`PolynomialError`.
    """
    if isinstance(value, Fraction):
        return value
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise PolynomialError(f"zero denominator in {value!r}") from None
    except TypeError:
        raise PolynomialError(f"{value!r} is not a rational number") from None
    except (ValueError, OverflowError) as exc:
        raise PolynomialError(str(exc)) from None


class PolynomialError(ValueError):
    """Raised for dimension mismatches and malformed polynomial input."""


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """Sparse multivariate polynomial over the rationals.

    ``terms`` maps exponent tuples (length ``var_count``) to nonzero Fraction
    coefficients.  Instances are treated as immutable; all arithmetic returns
    new objects.
    """

    __slots__ = ("var_count", "terms", "_hash")

    def __init__(self, var_count: int, terms: dict[tuple[int, ...], Fraction] | None = None):
        if var_count < 1:
            raise PolynomialError("var_count must be >= 1")
        clean: dict[tuple[int, ...], Fraction] = {}
        for expo, coeff in (terms or {}).items():
            if len(expo) != var_count:
                raise PolynomialError(
                    f"exponent tuple {expo} has length {len(expo)}, expected {var_count}"
                )
            c = as_rational(coeff)
            if c != 0:
                clean[tuple(int(e) for e in expo)] = c
        self.var_count = var_count
        self.terms = clean
        self._hash: int | None = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(value: RationalLike, var_count: int) -> "Polynomial":
        c = as_rational(value)
        if c == 0:
            return Polynomial(var_count, {})
        return Polynomial(var_count, {(0,) * var_count: c})

    @staticmethod
    def variable(index: int, var_count: int) -> "Polynomial":
        """The monomial x_{index}, with 1-based index."""
        if not 1 <= index <= var_count:
            raise PolynomialError(f"variable index {index} out of range 1..{var_count}")
        expo = tuple(1 if i == index - 1 else 0 for i in range(var_count))
        return Polynomial(var_count, {expo: Fraction(1)})

    # -- ring operations ----------------------------------------------

    def _check_same_space(self, other: "Polynomial") -> None:
        if self.var_count != other.var_count:
            raise PolynomialError(
                f"variable count mismatch: {self.var_count} vs {other.var_count}"
            )

    def __add__(self, other: "Polynomial | RationalLike") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.var_count)
        self._check_same_space(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            acc = terms.get(expo, Fraction(0)) + coeff
            if acc == 0:
                terms.pop(expo, None)
            else:
                terms[expo] = acc
        return Polynomial(self.var_count, terms)

    def __radd__(self, other: RationalLike) -> "Polynomial":
        return self.__add__(other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.var_count, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial | RationalLike") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.var_count)
        return self + (-other)

    def __rsub__(self, other: RationalLike) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other: "Polynomial | RationalLike") -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = as_rational(other)
            if c == 0:
                return Polynomial(self.var_count, {})
            return Polynomial(self.var_count, {e: k * c for e, k in self.terms.items()})
        self._check_same_space(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                acc = terms.get(expo, Fraction(0)) + c1 * c2
                if acc == 0:
                    terms.pop(expo, None)
                else:
                    terms[expo] = acc
        return Polynomial(self.var_count, terms)

    def __rmul__(self, other: RationalLike) -> "Polynomial":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise PolynomialError("negative powers not supported")
        result = Polynomial.constant(1, self.var_count)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- queries --------------------------------------------------------

    def total_degree(self) -> int:
        """Total degree; 0 for the zero polynomial by convention."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def degree_in(self, var_indices: Sequence[int]) -> int:
        """Max combined exponent over the given 1-based variables."""
        if not self.terms:
            return 0
        idx = [i - 1 for i in var_indices]
        return max(sum(e[i] for i in idx) for e in self.terms)

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Compose: replace x_i by images[i-1] (all in a common target space)."""
        if len(images) != self.var_count:
            raise PolynomialError("substitution needs one image per variable")
        target = images[0].var_count
        for q in images:
            if q.var_count != target:
                raise PolynomialError("image polynomials live in different spaces")
        result = Polynomial(target, {})
        for expo, coeff in self.terms.items():
            term = Polynomial.constant(coeff, target)
            for i, e in enumerate(expo):
                if e:
                    term = term * images[i] ** e
            result = result + term
        return result

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in graded-lex order: higher total degree first, then lex."""
        return sorted(
            self.terms.items(),
            key=lambda item: (sum(item[0]), item[0]),
            reverse=True,
        )

    # -- equality / hashing ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.var_count == other.var_count
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.var_count, frozenset(self.terms.items())))
        return self._hash

    # -- printing --------------------------------------------------------

    def to_text(self, var_prefix: str = "x") -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for expo, coeff in self.sorted_terms():
            factors = []
            for i, e in enumerate(expo):
                if e == 1:
                    factors.append(f"{var_prefix}{i + 1}")
                elif e > 1:
                    factors.append(f"{var_prefix}{i + 1}^{e}")
            mag = abs(coeff)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = "*".join([str(mag)] + factors)
            else:
                body = str(mag)
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Polynomial({self.var_count}, {self.to_text()!r})"


def evaluate_polynomial(p: Polynomial, x: Sequence[RationalLike]) -> Fraction:
    """Exact value of ``p`` at a rational point."""
    if len(x) != p.var_count:
        raise PolynomialError(f"point has length {len(x)}, expected {p.var_count}")
    xs = [as_rational(v) for v in x]
    total = Fraction(0)
    for expo, coeff in p.terms.items():
        term = coeff
        for value, e in zip(xs, expo):
            if e:
                term *= value**e
        total += term
    return total


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------
#
# An interval is a (lo, hi) pair of floats.  Directed rounding (Rump,
# *Verification methods*, Acta Numerica 2010) steps every lower bound toward
# -inf and every upper bound toward +inf, so each enclosure holds the exact
# real range.


def round_down(x: float) -> float:
    return math.nextafter(x, -_INF)


def round_up(x: float) -> float:
    return math.nextafter(x, _INF)


def float_enclosure(value: Fraction) -> tuple[float, float]:
    """Float bounds of an exact rational, stepped outward where float() rounded."""
    f = float(value)
    return (f, f) if f == value else (round_down(f), round_up(f))


def pow_bounds(x: float, m: int) -> tuple[float, float]:
    """Enclosure of the point value x^m, m ≥ 1."""
    a = abs(x)
    lo_mag = hi_mag = a
    for _ in range(m - 1):
        lo_mag = round_down(lo_mag * a)
        hi_mag = round_up(hi_mag * a)
    if x >= 0.0 or m % 2 == 0:
        return lo_mag, hi_mag
    return -hi_mag, -lo_mag


def interval_pow(lo: float, hi: float, m: int) -> tuple[float, float]:
    """Enclosure of {t^m : lo ≤ t ≤ hi}, m ≥ 1."""
    if m == 1:
        return lo, hi
    plo, phi = pow_bounds(lo, m)
    qlo, qhi = pow_bounds(hi, m)
    if m % 2 == 1 or lo >= 0.0:
        return plo, qhi
    if hi <= 0.0:
        return qlo, phi
    return 0.0, max(phi, qhi)


def interval_scale(a: float, lo: float, hi: float) -> tuple[float, float]:
    """Enclosure of a·[lo, hi]."""
    if a >= 0.0:
        return round_down(a * lo), round_up(a * hi)
    return round_down(a * hi), round_up(a * lo)


def interval_mul(a_lo: float, a_hi: float, b_lo: float, b_hi: float) -> tuple[float, float]:
    """Enclosure of [a_lo, a_hi]·[b_lo, b_hi]."""
    products = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
    return round_down(min(products)), round_up(max(products))


# ---------------------------------------------------------------------------
# Exact elimination
# ---------------------------------------------------------------------------


def _reduce(column: dict, pivots: dict) -> dict:
    """Subtract pivot multiples from ``column``, in place, while its largest
    row key holds a pivot."""
    while column:
        lead = max(column)
        pivot = pivots.get(lead)
        if pivot is None:
            break
        factor = column[lead] / pivot[lead]
        for row, value in pivot.items():
            acc = column.get(row, 0) - factor * value
            if acc:
                column[row] = acc
            else:
                column.pop(row, None)
    return column


def column_pivots(columns: Iterable[Mapping]) -> dict:
    """Sparse column reduction over Q; the number of pivots is the rank.

    Columns are {row key: nonzero Fraction} maps, row keys comparable.  Each
    column is reduced against the pivots found so far, and a nonzero
    remainder becomes the pivot of its largest row key.
    """
    pivots: dict = {}
    for column in columns:
        reduced = _reduce(dict(column), pivots)
        if reduced:
            pivots[max(reduced)] = reduced
    return pivots


def solve_columns(
    columns: Sequence[Mapping[tuple[int, ...], Fraction]],
    target: Mapping[tuple[int, ...], Fraction],
) -> list[Fraction] | None:
    """Coefficients c with Σ_j c_j·columns[j] = target over Q, or None when
    the system is inconsistent.

    Row keys are exponent tuples.  Column j gets an extra 1 under the tag
    (−1, j), which sorts below every exponent tuple, so tags lead a column
    only once its exponent entries are eliminated.  The target reduced to
    tags alone is target − Σ_j c_j·(column j + tag j): its tag-j entry is −c_j.
    """
    tagged = ({**column, (-1, j): Fraction(1)} for j, column in enumerate(columns))
    rest = _reduce(dict(target), column_pivots(tagged))
    if rest and max(rest)[0] >= 0:
        return None
    return [-rest.get((-1, j), Fraction(0)) for j in range(len(columns))]


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignAtom:
    """A closed sign condition ``poly rel 0`` with rel in {>=, <=, =}."""

    poly: Polynomial
    relation: str

    def __post_init__(self) -> None:
        if self.relation not in RELATIONS:
            raise PolynomialError(
                f"relation {self.relation!r} is not one of {RELATIONS} (closed relations only)"
            )

    def holds(self, value: Fraction) -> bool:
        if self.relation == ">=":
            return value >= 0
        if self.relation == "<=":
            return value <= 0
        return value == 0


@dataclass(frozen=True)
class FormulaNode:
    """AND/OR tree over sign atoms.  kind is 'atom', 'and' or 'or'."""

    kind: str
    atom: SignAtom | None = None
    children: tuple["FormulaNode", ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "atom":
            if self.atom is None or self.children:
                raise PolynomialError("atom node must carry exactly an atom")
        elif self.kind in ("and", "or"):
            if self.atom is not None or len(self.children) < 2:
                raise PolynomialError(f"{self.kind} node needs >= 2 children and no atom")
        else:
            # no negation node exists in this AST by construction
            raise PolynomialError(f"unknown node kind {self.kind!r}")

    def atoms(self) -> Iterable[SignAtom]:
        if self.kind == "atom":
            yield self.atom  # type: ignore[misc]
        else:
            for child in self.children:
                yield from child.atoms()


@dataclass(frozen=True)
class ClosedFormula:
    """A negation-free combination of closed sign atoms over k variables.

    ``polynomial_set`` is the deduplicated defining family, ordered by the
    canonical printed form so that its cardinality (the s in bound formulas)
    and iteration order are deterministic.
    """

    k: int
    root: FormulaNode
    polynomial_set: tuple[Polynomial, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise PolynomialError("formula needs k >= 1 variables")
        seen: dict[Polynomial, None] = {}
        for atom in self.root.atoms():
            if atom.poly.var_count != self.k:
                raise PolynomialError("atom polynomial lives in the wrong space")
            seen.setdefault(atom.poly)
        ordered = sorted(seen, key=lambda p: p.to_text())
        object.__setattr__(self, "polynomial_set", tuple(ordered))

    @property
    def s(self) -> int:
        return len(self.polynomial_set)

    def atoms(self) -> list[SignAtom]:
        return list(self.root.atoms())

    def map_atoms(self, fn: Callable[[SignAtom], SignAtom], new_k: int | None = None) -> "ClosedFormula":
        """Structure-preserving atom replacement (used by rewriting stages)."""

        def walk(node: FormulaNode) -> FormulaNode:
            if node.kind == "atom":
                return FormulaNode("atom", atom=fn(node.atom))  # type: ignore[arg-type]
            return FormulaNode(node.kind, children=tuple(walk(c) for c in node.children))

        return ClosedFormula(new_k if new_k is not None else self.k, walk(self.root))

    def to_text(self, var_prefix: str = "x") -> str:
        def walk(node: FormulaNode, parent: str | None) -> str:
            if node.kind == "atom":
                assert node.atom is not None
                rel = node.atom.relation
                return f"{node.atom.poly.to_text(var_prefix)} {rel} 0"
            joiner = f" {node.kind} "
            body = joiner.join(walk(c, node.kind) for c in node.children)
            if parent is not None and parent != node.kind:
                return f"({body})"
            return body

        return walk(self.root, None)


def evaluate_formula(f: ClosedFormula, x: Sequence[RationalLike]) -> bool:
    """Exact truth value of the formula at a rational point."""
    if len(x) != f.k:
        raise PolynomialError(f"point has length {len(x)}, expected {f.k}")
    xs = [as_rational(v) for v in x]

    def walk(node: FormulaNode) -> bool:
        if node.kind == "atom":
            assert node.atom is not None
            return node.atom.holds(evaluate_polynomial(node.atom.poly, xs))
        if node.kind == "and":
            return all(walk(c) for c in node.children)
        return any(walk(c) for c in node.children)

    return walk(f.root)


# ---------------------------------------------------------------------------
# Block structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockSpec:
    """Variable blocks (k_1, ..., k_w) with per-block degree caps (d_1, ..., d_w).

    The ambient variable count is the sum of the block sizes; block i owns the
    contiguous 1-based variable range it is assigned by position.
    """

    block_sizes: tuple[int, ...]
    degree_caps: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "block_sizes", tuple(int(k) for k in self.block_sizes))
        object.__setattr__(self, "degree_caps", tuple(int(d) for d in self.degree_caps))
        if not self.block_sizes:
            raise PolynomialError("at least one block required")
        if len(self.block_sizes) != len(self.degree_caps):
            raise PolynomialError("one degree cap per block required")
        if any(k < 1 for k in self.block_sizes):
            raise PolynomialError("block sizes must be positive")
        if any(d < 1 for d in self.degree_caps):
            raise PolynomialError("degree caps must be positive")

    @staticmethod
    def single(k: int, d: int) -> "BlockSpec":
        return BlockSpec((k,), (d,))

    @property
    def omega(self) -> int:
        return len(self.block_sizes)

    @property
    def total_vars(self) -> int:
        return sum(self.block_sizes)

    @property
    def d_primes(self) -> tuple[int, ...]:
        return tuple(min(k, d) for k, d in zip(self.block_sizes, self.degree_caps))

    def block_variables(self, i: int) -> list[int]:
        """1-based variable indices of block i (0-based block index)."""
        start = sum(self.block_sizes[:i])
        return list(range(start + 1, start + self.block_sizes[i] + 1))


def multidegree(p: Polynomial, blocks: BlockSpec) -> tuple[int, ...]:
    """Per-block degree of ``p``: max over terms of the block's exponent sum."""
    if blocks.total_vars != p.var_count:
        raise PolynomialError(
            f"blocks cover {blocks.total_vars} variables, polynomial has {p.var_count}"
        )
    return tuple(p.degree_in(blocks.block_variables(i)) for i in range(blocks.omega))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    """Syntax/semantic error with position information."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# open "(" and unary signs at any point of a parse; a level costs at most
# six stack frames (one per binding power climbed), about 600 in all
MAX_NESTING = 100

_TOKEN = re.compile(r"\s*(?:(\d+)|([^\W\d]\w*)|(>=|<=|[-+*^()=/,])|(\S))")
# binding power of each infix operator, loosest first; a unary sign binds at
# _SIGN, and a literal n/m and a power "^ n" bind to the operand they follow,
# tighter than anything here
_BINDING = {"or": 1, "and": 2, ">=": 3, "<=": 3, "=": 3, "+": 4, "-": 4, "*": 5}
_SIGN = 6
_CONNECTIVES = ("and", "or")


class _Climb:
    """One precedence-climbing pass (Pratt, POPL 1973) over a text's tokens.

    ``expr(rbp)`` reads one operand, then every infix operator that binds
    tighter than ``rbp`` and fits the operand read so far: ``and``/``or``
    join formulas, a relation and arithmetic take polynomials.  A relation
    yields a formula, so relations do not chain; a run of one connective is
    one node, and a parenthesised run stays its own.  ``depth`` counts the
    "(" and unary signs open at the cursor; more than MAX_NESTING is a
    ParseError at the token that opens one too many.
    """

    def __init__(self, text: str, k: int):
        if k < 1:
            raise ParseError("k must be >= 1 (degenerate variable count rejected)", 0)
        self.k, self.at, self.depth = k, 0, 0
        self.tokens: list[tuple[str, str, int]] = []  # (kind, value, position)
        for match in _TOKEN.finditer(text):
            num, name, op, other = match.groups()
            position = match.start(match.lastindex)
            if other in ("<", ">"):
                raise ParseError(
                    f"strict inequality {other!r} rejected: only closed relations >=, <=, = are allowed",
                    position,
                )
            if other is not None:
                raise ParseError(f"unexpected character {other!r}", position)
            if name == "not":
                raise ParseError("negation rejected: formulas must be negation-free", position)
            kind = "num" if num else "name" if name and name not in _CONNECTIVES else "op"
            self.tokens.append((kind, num or name or op, position))
        self.tokens.append(("end", "", len(text)))

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.at]
        if tok[0] == "end":
            raise ParseError("unexpected end of input", tok[2])
        self.at += 1
        return tok

    def done(self) -> None:
        kind, value, position = self.tokens[self.at]
        if kind != "end":
            raise ParseError(f"trailing input {value!r}", position)

    def formula(self, operand: "Polynomial | FormulaNode") -> FormulaNode:
        """``operand`` where a formula stands: a polynomial there lacks its relation."""
        if isinstance(operand, FormulaNode):
            return operand
        _, value, position = self.next()
        raise ParseError(f"expected a relation >=, <= or =, found {value!r}", position)

    @staticmethod
    def polynomial(operand: "Polynomial | FormulaNode", tok: tuple[str, str, int]) -> Polynomial:
        """``operand`` of the arithmetic operator ``tok``."""
        if isinstance(operand, Polynomial):
            return operand
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])

    def suffix(self, op: str, message: str) -> int | None:
        """The number after ``op`` at the cursor, None if ``op`` is not there."""
        if self.tokens[self.at][1] != op:
            return None
        self.at += 1
        kind, value, position = self.next()
        if kind != "num":
            raise ParseError(message, position)
        return int(value)

    def expr(self, rbp: int) -> "Polynomial | FormulaNode":
        tok = kind, value, position = self.next()
        if value in ("(", "+", "-"):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING} levels", position)
            if value == "(":
                left = self.expr(0)
                close = self.next()
                if close[1] != ")":
                    raise ParseError(f"expected ')', found {close[1]!r}", close[2])
            else:
                left = self.polynomial(self.expr(_SIGN), tok)
                left = -left if value == "-" else left
            self.depth -= 1
        elif kind == "num":
            den = self.suffix("/", "denominator must be an integer")
            if den == 0:
                raise ParseError("zero denominator", self.tokens[self.at - 1][2])
            left = Polynomial.constant(Fraction(int(value), den or 1), self.k)
        elif kind == "name":
            if not (value.startswith("x") and value[1:].isdigit()):
                raise ParseError(f"unknown symbol {value!r} (variables are x1..x{self.k})", position)
            index = int(value[1:])
            if not 1 <= index <= self.k:
                raise ParseError(f"variable index {index} out of range 1..{self.k}", position)
            left = Polynomial.variable(index, self.k)
        else:
            raise ParseError(f"unexpected token {value!r}", position)
        # a power's base is the operand just read, never a signed one:
        # -x1^2 is -(x1^2), and x1^2^3 is an error
        if value not in ("+", "-") and isinstance(left, Polynomial):
            exponent = self.suffix("^", "exponent must be a nonnegative integer")
            left = left if exponent is None else left**exponent
        while True:
            tok = _, op, position = self.tokens[self.at]
            bp = _BINDING.get(op, 0)
            if bp <= rbp or isinstance(left, FormulaNode) != (op in _CONNECTIVES):
                return left
            self.at += 1
            if op in _CONNECTIVES:
                children = [left, self.formula(self.expr(bp))]
                while self.tokens[self.at][1] == op:
                    self.at += 1
                    children.append(self.formula(self.expr(bp)))
                left = FormulaNode(op, children=tuple(children))
            elif op in RELATIONS:
                rhs = self.expr(bp)
                if not isinstance(rhs, Polynomial) or rhs.total_degree() > 0:
                    raise ParseError("relation right-hand side must be a rational constant", position)
                left = FormulaNode("atom", atom=SignAtom(left - rhs, op))
            else:
                right = self.polynomial(self.expr(bp), tok)
                left = left * right if op == "*" else left + right if op == "+" else left - right


def parse_polynomial(text: str, k: int) -> Polynomial:
    parser = _Climb(text, k)
    poly = parser.expr(_BINDING["="])
    parser.done()
    return parser.polynomial(poly, parser.tokens[0])


def parse_formula(text: str, k: int) -> ClosedFormula:
    """Parse a closed formula over variables x1..xk.

    Rejects ``not`` and strict inequalities outright; those would leave the
    closed-formula class the rest of the package is built for.
    """
    parser = _Climb(text, k)
    root = parser.formula(parser.expr(0))
    parser.done()
    return ClosedFormula(k, root)
