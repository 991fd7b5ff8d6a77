"""End-to-end quotient Betti numbers for symmetric semi-algebraic sets.

Given a closed formula Φ over symmetric polynomials of block-degree at most
d_i, the quotient S/𝔖_k is identified (up to homotopy) with the part of the
power-sum image where the rewritten formula holds.  The pipeline composes

    rewrite Φ to power-sum coordinates
    → membership oracle for the image of the sorted chamber
    → cubical homology on a clipped grid, at two resolutions

and reports b^0 .. b^{t−1}, where t = Σ min(k_i, d_i); every degree from t on
vanishes identically and is declared, not computed.

Two independent oracles keep the main path honest: ``direct_quotient_betti``
computes the homology of Φ ∩ {x_1 ≤ … ≤ x_k} in x-space for small k (each
orbit meets the sorted chamber exactly once), and ``orbit_count_finite``
counts orbits of finite configurations two ways.

Both grids sample one closed formula, the region: in image space the
rewritten formula ∧ the per-block ``fibres.image_conditions``, which define
the image of the chamber for d' ≤ 3; in x-space the formula ∧ the chamber
order x_{i+1} − x_i ≥ 0.  The grid asks about cell centres (radius 0) and
first about tile centres (radius r > 0, ``build_cubical``).  At every radius
the region is walked on one order, false 0 < not settled 1 < true 2 (``and``
the minimum, ``or`` the maximum), mapped once to the grid codes.  One pass
over an atom's terms gives its float value and an a-priori rounding band;
the value decides outside the band, and inside it the atom is decided in
fractions at r = 0 and is "not settled" at r > 0.  A block with d' ≥ 4 sends
the cells in the region to the fibre solver and never lets a tile be settled
inside.  The reported homology is that of the clipped, thickened set;
callers pick clip boxes large enough to contain the region of interest.

Each atom carries one bound, L_P = Σ_terms Σ_j |c|·e_j·Π_i M_i^(e_i − [i=j])
with M_i = max(|lo_i|, |hi_i|), rounded up: it bounds the ℓ¹ norm of ∇P on
the box, so |P(x) − P(c)| ≤ L_P·‖x − c‖∞ for x and c in the box.  It serves
twice.  An equality P = 0 is sampled as the closed shell |P| ≤ τ with
τ = (h/2)·L_P (h/2 when L_P = 0), so every grid cell meeting {P = 0}
contributes its center.  And at radius r the band is widened by L_P·r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np

from orbit_betti.compositions import CompositionError, chain_count, paper_chain_bound
from orbit_betti.cubical import BettiVector, build_cubical, betti_numbers, stable_betti
from orbit_betti.fibres import INSIDE, OUTSIDE, image_conditions, image_membership
from orbit_betti.polys import (
    BlockSpec,
    ClosedFormula,
    FormulaNode,
    Polynomial,
    RationalLike,
    SignAtom,
    as_rational,
    evaluate_polynomial,
    float_enclosure,
    multidegree,
    pow_bounds,
    round_up,
)
from orbit_betti.powersums import check_symmetric, rewrite_formula

MAX_IMAGE_DIM = 4
ORBIT_ENUMERATION_LIMIT = 10**6


class PipelineError(ValueError):
    pass


# ---------------------------------------------------------------------------
# problem specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """A quotient-homology problem: blocks, defining formula, and grid data.

    ``clip_box`` lives in the image space R^{Σ d_i'} (power-sum coordinates,
    block-major); ``resolution`` is the coarse grid step — the pipeline also
    runs at half of it for the stability check.
    """

    blocks: BlockSpec
    formula: ClosedFormula
    clip_box: tuple[tuple[Fraction, Fraction], ...]
    resolution: Fraction

    def __post_init__(self) -> None:
        if self.formula.k != self.blocks.total_vars:
            raise PipelineError(
                f"formula has {self.formula.k} variables, blocks have "
                f"{self.blocks.total_vars}"
            )
        box = tuple(
            (as_rational(lo), as_rational(hi)) for lo, hi in self.clip_box
        )
        object.__setattr__(self, "clip_box", box)
        for lo, hi in box:
            if lo >= hi:
                raise PipelineError(f"empty clip box edge [{lo}, {hi}]")
        expected = sum(self.blocks.d_primes)
        if len(box) != expected:
            raise PipelineError(
                f"clip box has {len(box)} edges, image space has {expected}"
            )
        object.__setattr__(self, "resolution", as_rational(self.resolution))
        if self.resolution <= 0:
            raise PipelineError("resolution must be positive")
        for poly in self.formula.polynomial_set:
            degrees = multidegree(poly, self.blocks)
            for deg, cap in zip(degrees, self.blocks.degree_caps):
                if deg > cap:
                    raise PipelineError(
                        f"{poly.to_text()} exceeds block degree cap {cap}"
                    )


# ---------------------------------------------------------------------------
# thickened formula sampling
# ---------------------------------------------------------------------------


_UNIT_ROUNDOFF = 2.0**-53

# Points per block of the formula walk, so that an atom's temporaries (128 KiB
# per float column) have one size whatever the grid and the allocator hands
# the same chunks back from block to block.  On a quotient-d2 pass (Xeon,
# numpy 2.4) 2^13 to 2^15 time alike with under 10 page faults a pass; from
# 2^16 on, the larger temporaries cost about 2,100 faults a pass.
_WALK_ROWS = 2**14


class _CompiledAtom:
    """A sign atom compiled for the walk, with its one Lipschitz bound.

    ``evaluate`` computes each power x_i^e once, by the chain of e − 1
    products x·x·…·x, and each term c·Πx_i^e once, and sums the terms into
    the value and their absolute values into the magnitude.  With N rounding
    steps on a term's longest path (one per coefficient, at most e per power
    x^e, one per product and one per addition) the value is within
    γ_N · Σ|c|·|x|^e of the exact one, γ_N = N·u/(1 − N·u) (Higham, *Accuracy
    and Stability of Numerical Algorithms*, §3.1).  The band is twice that,
    for the rounding of the magnitude and of the comparisons, plus an
    underflow allowance per step; N counts one step more than the path, as
    the magnitude sums rounded terms.  ``mask`` decides in float outside the
    band around the threshold (0, or ±τ for a thickened equality) and, at
    radius 0, in ``Fraction`` inside it, once per distinct tuple of the
    values of the columns the atom uses.

    ``slope`` = L_P = Σ_terms Σ_j |c|·e_j·Π_i M_i^(e_i − [i=j]), rounded up,
    with M_i = ``reach[i]`` ≥ |x_i| on the box, bounds the ℓ¹ norm of ∇P
    over the box, so that |P(x) − P(c)| ≤ L_P·‖x − c‖∞ for x and c in the
    box.  An equality is thickened by it: τ = (h/2)·L_P, or h/2 when L_P is
    0, kept as an exact ``Fraction``.
    """

    def __init__(self, atom: SignAtom, h: Fraction, reach: Sequence[float]) -> None:
        poly = atom.poly
        self.atom = atom
        self.terms = [
            (float(c), [(i, e) for i, e in enumerate(expo) if e])
            for expo, c in poly.terms.items()
        ] or [(0.0, [])]
        self.powers = sorted({f for _, factors in self.terms for f in factors})
        self.used = sorted({i for i, _ in self.powers})
        steps = 2 + len(poly.terms) + max(
            (sum(e + 1 for e in expo if e) for expo in poly.terms), default=0
        )
        self.gamma2 = 2 * (steps * _UNIT_ROUNDOFF / (1 - steps * _UNIT_ROUNDOFF))
        self.underflow = steps * len(poly.terms) * np.finfo(float).tiny
        self.slope = 0.0
        for expo, c in poly.terms.items():
            low, high = float_enclosure(c)
            for j, e_j in enumerate(expo):
                if e_j:
                    part = round_up(max(-low, high) * e_j)
                    for i, e in enumerate(expo):
                        if e - (i == j):
                            part = round_up(part * pow_bounds(reach[i], e - (i == j))[1])
                    self.slope = round_up(self.slope + part)
        if atom.relation == "=":
            half = Fraction(h, 2)
            tau = self.tau = half * Fraction(self.slope) if self.slope else half
            self.tau_f = float(tau)
            self.test = lambda value: abs(value) <= tau
        else:
            self.test = atom.holds

    def evaluate(self, cols: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """(value, error bound) at the points whose coordinates are ``cols``."""
        size = len(cols[0])
        power: dict[tuple[int, int], np.ndarray] = {}
        last = (-1, 0)
        for i, e in self.powers:
            # the powers of x_i come in increasing order: continue its chain
            x = cols[i]
            chain, done = (power[last], last[1]) if last[0] == i else (x, 1)
            for _ in range(done, e):
                chain = chain * x
            power[last := (i, e)] = chain
        for n, (c, factors) in enumerate(self.terms):
            if factors:
                term = c * power[factors[0]]
                for f in factors[1:]:
                    term *= power[f]
            else:
                term = np.full(size, c)
            if n:
                value += term
                magnitude += np.abs(term, out=term)
            else:
                value, magnitude = term, np.abs(term)
        magnitude *= self.gamma2
        magnitude += self.underflow
        return value, magnitude

    def mask(self, cols: Sequence[np.ndarray], radius: float = 0.0) -> np.ndarray:
        """The walk's codes, false 0 < not settled 1 < true 2.  At radius
        r > 0 the band, widened by L_P·r (rounded up with room for its
        addition to the band), answers 1; at r = 0 it is decided exactly."""
        value, err = self.evaluate(cols)
        if radius:
            err += round_up(self.slope * radius * (1 + 4 * _UNIT_ROUNDOFF))
        if self.atom.relation == "=":
            np.abs(value, out=value)
            out = value <= self.tau_f
            value -= self.tau_f
            band = np.abs(value, out=value) <= err + 2 * _UNIT_ROUNDOFF * self.tau_f
        else:
            out = value >= 0.0 if self.atom.relation == ">=" else value <= 0.0
            band = np.abs(value, out=value) <= err
        codes = out.view(np.int8)
        codes *= 2
        rows = np.flatnonzero(band)
        if rows.size:
            codes[rows] = 1 if radius else self._exact(cols, rows)
        return codes

    def _exact(self, cols: Sequence[np.ndarray], rows: np.ndarray) -> np.ndarray:
        """Exact codes, false 0 or true 2, at ``rows``: one per distinct tuple
        of the values of the columns the atom uses, scattered to every row."""
        poly = self.atom.poly
        point = [Fraction(0)] * poly.var_count
        keys = np.column_stack([cols[i][rows] for i in self.used] or [np.zeros(rows.size)])
        # each row as one void scalar: np.unique on those takes a fifth of
        # the time of np.unique(keys, axis=0) at a few hundred rows
        whole = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
        _, first, inverse = np.unique(whole, return_index=True, return_inverse=True)
        verdicts = []
        for key in keys[first].tolist():
            for i, v in zip(self.used, key):
                point[i] = Fraction(v)
            verdicts.append(2 if self.test(evaluate_polynomial(poly, point)) else 0)
        return np.array(verdicts, dtype=np.int8)[inverse]


def _compile(
    node: FormulaNode, h: Fraction, reach: Sequence[float], atoms: dict
) -> _CompiledAtom | tuple:
    """An atom's ``_CompiledAtom`` (one per distinct atom), or (is_and,
    compiled children) for an ``and``/``or`` node."""
    if node.kind != "atom":
        return node.kind == "and", [_compile(c, h, reach, atoms) for c in node.children]
    if node.atom not in atoms:
        atoms[node.atom] = _CompiledAtom(node.atom, h, reach)
    return atoms[node.atom]


def _walk(node: _CompiledAtom | tuple, cols: list[np.ndarray], radius: float) -> np.ndarray:
    """Codes of a compiled subtree on the order false 0 < not settled 1 <
    true 2: an ``and`` takes the minimum of its children and an ``or`` the
    maximum, and each later child is evaluated only where the result can
    still change — where it is not false for an ``and``, not true for an
    ``or`` — on the columns gathered at those points."""
    if isinstance(node, _CompiledAtom):
        return node.mask(cols, radius)
    is_and, children = node
    out = _walk(children[0], cols, radius)
    for child in children[1:]:
        open_ = np.flatnonzero(out != (0 if is_and else 2))
        if open_.size:
            found = _walk(child, [c[open_] for c in cols], radius)
            out[open_] = (np.minimum if is_and else np.maximum)(out[open_], found)
    return out


def _formula_mask(
    root: _CompiledAtom | tuple, points: np.ndarray, radius: float = 0.0
) -> np.ndarray:
    """The grid codes of a compiled formula (``_compile``) at an (N, k)
    float array, 0 outside, 1 inside, 2 not settled: at radius 0 of each
    point (always 0 or 1), at radius r > 0 of every point of the box within
    ∞-distance r of it.

    The walk (``_walk``) short-circuits: an atom is evaluated only at the
    points where it can still change the answer.  It takes the points
    ``_WALK_ROWS`` at a time, each block as k columns, which are contiguous
    when ``points`` is the transpose of a (k, N) array, as ``build_cubical``
    hands it over.
    """
    out = np.empty(len(points), dtype=np.int8)
    for start in range(0, len(points), _WALK_ROWS):
        stop = min(start + _WALK_ROWS, len(points))
        cols = [points[start:stop, i] for i in range(points.shape[1])]
        out[start:stop] = _walk(root, cols, radius)
    # the walk's false 0 < not settled 1 < true 2 as the grid codes 0, 2, 1
    codes = (out == 2).view(np.int8)
    codes[out == 1] = 2
    return codes


def _image_region(
    blocks: BlockSpec,
) -> tuple[list[Polynomial], list[tuple[int, int, int, int]]]:
    """Every block's ``image_conditions`` in the image coordinates, and the
    blocks with d' ≥ 4, whose conditions are only necessary, as (k, d, first
    coordinate, end) for the fibre search."""
    var_count = sum(blocks.d_primes)
    conditions: list[Polynomial] = []
    searched = []
    start = 0
    for k, d, dp in zip(blocks.block_sizes, blocks.degree_caps, blocks.d_primes):
        conditions += image_conditions(k, dp, var_count, start)
        if dp >= 4:
            searched.append((k, d, start, start + dp))
        start += dp
    return conditions, searched


def _chamber_order(k: int) -> list[Polynomial]:
    """x_{i+1} − x_i for i < k: nonnegative on the sorted chamber."""
    x = [Polynomial.variable(i, k) for i in range(1, k + 1)]
    return [b - a for a, b in zip(x, x[1:])]


class _QuotientOracle:
    """Grid oracle: one region, the thickened formula ∧ conditions P ≥ 0.

    The region is compiled once (``_compile``), with M_i ≥ |x_i| taken on
    the box's outward float enclosure.  One ``_formula_mask`` call per batch
    decides it, and its walk tests the conditions only at points where the
    formula holds.  In image space the conditions are ``_image_region``'s,
    which decide each block with d' ≤ 3 exactly, and the points in the
    region go through ``image_membership`` for each ``searched`` block
    (d' ≥ 4).  In x-space they are ``_chamber_order``'s.
    """

    def __init__(
        self,
        formula: ClosedFormula,
        box: Sequence[tuple[Fraction, Fraction]],
        h: Fraction,
        conditions: Sequence[Polynomial],
        searched: Sequence[tuple[int, int, int, int]] = (),
    ) -> None:
        nodes = [FormulaNode("atom", atom=SignAtom(p, ">=")) for p in conditions]
        root = FormulaNode("and", children=(formula.root, *nodes)) if nodes else formula.root
        reach = [max(-float_enclosure(lo)[0], float_enclosure(hi)[1]) for lo, hi in box]
        self.root = _compile(root, h, reach, {})
        self.searched = searched

    def batch(self, points: np.ndarray, radius: float = 0.0) -> np.ndarray:
        """The grid codes of ``_formula_mask``; a searched block never lets
        a tile be settled inside, and decides each cell inside the formula
        with ``image_membership``."""
        codes = _formula_mask(self.root, points, radius)
        if self.searched and radius:
            codes[codes == 1] = 2
        elif self.searched:
            for idx in np.flatnonzero(codes == 1):
                row = points[idx]
                for k, d, lo, hi in self.searched:
                    verdict = image_membership(k, d, [float(v) for v in row[lo:hi]])
                    if verdict == OUTSIDE:
                        codes[idx] = 0
                        break
                    if verdict != INSIDE:
                        codes[idx] = 2
        return codes


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundsReport:
    """Explicit values of the published bound formulas, for comparison only.

    Entries built from big-O expressions carry the supplied constant ``c``
    and are flagged in ``notes``; nothing here is asserted against computed
    Betti numbers except informationally.
    """

    optm_algebraic: int
    optm_closed: int
    multi_degree_form: int
    thm_bound_form: int
    F_value: int
    chain_count_exact: int | None
    vanishing_threshold: int
    constant_c: float
    notes: tuple[str, ...]

    def __post_init__(self) -> None:
        values = [
            self.optm_algebraic, self.optm_closed, self.multi_degree_form,
            self.thm_bound_form, self.F_value, self.vanishing_threshold,
        ]
        if any(v < 0 for v in values):
            raise PipelineError("bound values must be nonnegative")

    def to_json(self) -> dict:
        return {
            "optm_algebraic": self.optm_algebraic,
            "optm_closed": self.optm_closed,
            "multi_degree_form": self.multi_degree_form,
            "thm_bound_form": self.thm_bound_form,
            "F_value": self.F_value,
            "chain_count_exact": self.chain_count_exact,
            "vanishing_threshold": self.vanishing_threshold,
            "constant_c": self.constant_c,
            "notes": list(self.notes),
        }


def vanishing_threshold(blocks: BlockSpec) -> int:
    """Every b^p with p ≥ Σ min(k_i, d_i) vanishes identically."""
    return sum(blocks.d_primes)


def bounds_report(blocks: BlockSpec, s: int, constant_c: float = 1.0) -> BoundsReport:
    """Evaluate the published bound expressions at these parameters.

    Big-O constants are replaced by ``constant_c`` and flagged; the exact
    chain count of the composition poset rides along for comparison with the
    closed-form F (which enumeration exceeds on some inputs).
    """
    if s < 1:
        raise PipelineError("s must be at least 1")
    if not (math.isfinite(constant_c) and constant_c > 0):
        raise PipelineError("constant must be finite and positive")
    c = as_rational(constant_c)
    k_total = blocks.total_vars
    d_max = max(blocks.degree_caps)
    omega = blocks.omega

    optm_algebraic = d_max * (2 * d_max - 1) ** (k_total - 1)
    # optm_closed sums C(s+1, j)·6^j·optm_algebraic over i ≤ k and
    # 1 ≤ j ≤ k − i.  With t = k − i the inner sum is partial[min(t, s+1)];
    # C(s+1, j) = 0 beyond s + 1, so each of the k − s values t > s gives
    # partial[s+1] = 7^(s+1) − 1.
    partial = [0]
    for j in range(1, s + 2):
        partial.append(partial[-1] + math.comb(s + 1, j) * 6**j)
    outer = sum(partial[: min(k_total, s) + 1]) + max(0, k_total - s) * partial[-1]
    optm_closed = outer * optm_algebraic

    multi = c**k_total * s**k_total * omega ** (3 * k_total)
    for k_i, d_i in zip(blocks.block_sizes, blocks.degree_caps):
        multi *= d_i**k_i
    multi_degree_form = math.ceil(multi)

    thm = Fraction(1)
    f_value = 1
    for k_i, d_i, dp_i in zip(blocks.block_sizes, blocks.degree_caps, blocks.d_primes):
        thm *= (c * omega**3 * s * d_i * dp_i) ** dp_i
        f_value *= paper_chain_bound(k_i, d_i)
    thm_bound_form = math.ceil(thm * f_value)

    chain_exact: int | None = 1
    notes = [
        f"big-O constants replaced by c = {float(constant_c)}; "
        "the absolute constant behind the O(.) is not pinned down"
    ]
    for k_i, d_i in zip(blocks.block_sizes, blocks.degree_caps):
        try:
            chain_exact *= chain_count(k_i, d_i)
        except CompositionError:
            chain_exact = None
            notes.append("chain poset too large for the exact count; F_value stands alone")
            break
    if chain_exact is not None and chain_exact > f_value:
        notes.append(
            f"exact chain count {chain_exact} exceeds the closed-form F {f_value}; "
            "the exact value is authoritative"
        )

    return BoundsReport(
        optm_algebraic=optm_algebraic,
        optm_closed=optm_closed,
        multi_degree_form=multi_degree_form,
        thm_bound_form=thm_bound_form,
        F_value=f_value,
        chain_count_exact=chain_exact,
        vanishing_threshold=vanishing_threshold(blocks),
        constant_c=float(constant_c),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# main pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientReport:
    """Computed quotient Betti numbers b^0 .. b^{t−1} plus context.

    ``betti`` holds exactly the degrees below the vanishing threshold t; the
    full ambient vectors (fine and coarse grid) are retained for the
    structural checks in :func:`verify_report`.
    """

    betti: tuple[int, ...]
    vanishing_threshold: int
    bounds: BoundsReport
    stable: bool
    resolutions: tuple[Fraction, Fraction]
    undecided_cells: int
    coarse_undecided_cells: int
    full_betti: BettiVector
    coarse_betti: BettiVector

    def to_json(self) -> dict:
        return {
            "betti": list(self.betti),
            "vanishing_threshold": self.vanishing_threshold,
            "bounds": self.bounds.to_json(),
            "stable": self.stable,
            "resolutions": [float(h) for h in self.resolutions],
            "undecided_cells": self.undecided_cells,
            "coarse_undecided_cells": self.coarse_undecided_cells,
            "full_betti": self.full_betti.to_json(),
            "coarse_betti": self.coarse_betti.to_json(),
        }


def quotient_betti(spec: ProblemSpec, constant_c: float = 1.0) -> QuotientReport:
    """Betti numbers of the quotient, from the image-space region.

    The oracle region is {y in clip_box : y in image, Φ̃(y)}; homology is
    computed at ``spec.resolution`` and at half of it, and the agreement flag
    is reported (disagreement is a warning, not an error).
    """
    image_dim = sum(spec.blocks.d_primes)
    if image_dim > MAX_IMAGE_DIM:
        raise PipelineError(
            f"image dimension {image_dim} exceeds the grid limit {MAX_IMAGE_DIM}"
        )
    # bad input to the bound calculators fails before the grid is sampled
    bounds = bounds_report(spec.blocks, spec.formula.s, constant_c)
    rewritten = rewrite_formula(spec.formula, spec.blocks)
    region = _image_region(spec.blocks)

    def factory(h: Fraction) -> _QuotientOracle:
        return _QuotientOracle(rewritten, spec.clip_box, h, *region)

    result = stable_betti(factory, spec.clip_box, spec.resolution)
    threshold = vanishing_threshold(spec.blocks)
    return QuotientReport(
        betti=tuple(result.betti.values[:threshold]),
        vanishing_threshold=threshold,
        bounds=bounds,
        stable=result.stable,
        resolutions=(spec.resolution, spec.resolution / 2),
        undecided_cells=result.undecided_cells,
        coarse_undecided_cells=result.coarse_undecided_cells,
        full_betti=result.betti,
        coarse_betti=result.coarse,
    )


def direct_quotient_betti(
    spec: ProblemSpec,
    x_box: Sequence[tuple[RationalLike, RationalLike]] | None = None,
    x_resolution: RationalLike | None = None,
) -> BettiVector:
    """Independent oracle: homology of Φ ∩ {x sorted} in x-space, k ≤ 4.

    Each orbit meets the sorted chamber exactly once, so this computes the
    same quotient without ever leaving the original variables.  The default
    box is the cube |x_i| ≤ r with r² just covering the clip box's p₂ range;
    pass ``x_box`` explicitly when the formula does not constrain p₂.
    """
    if spec.blocks.omega != 1:
        raise PipelineError("direct oracle handles a single block only")
    k = spec.blocks.total_vars
    if k > 4:
        raise PipelineError(f"direct oracle limited to k <= 4, got {k}")
    for poly in spec.formula.polynomial_set:
        if not check_symmetric(poly, spec.blocks):
            raise PipelineError(f"{poly.to_text()} is not symmetric")

    if x_box is None:
        if spec.blocks.d_primes[0] < 2:
            raise PipelineError(
                "cannot derive an x-box from a 1-dimensional image; pass x_box"
            )
        p2_hi = spec.clip_box[1][1]
        r = Fraction(math.isqrt(math.ceil(p2_hi)))
        while r * r < p2_hi:
            r += 1
        box = [(-r, r)] * k
    else:
        box = [(as_rational(lo), as_rational(hi)) for lo, hi in x_box]
        if len(box) != k:
            raise PipelineError(f"x-box needs {k} edges")
    h = as_rational(x_resolution) if x_resolution is not None else spec.resolution
    oracle = _QuotientOracle(spec.formula, box, h, _chamber_order(k))
    complex_ = build_cubical(oracle, box, h)
    return betti_numbers(complex_)


# ---------------------------------------------------------------------------
# independent oracles and report checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitCount:
    formula_value: int
    enumeration_value: int

    @property
    def agree(self) -> bool:
        return self.formula_value == self.enumeration_value


def orbit_count_finite(roots: Sequence[RationalLike], k: int) -> OrbitCount:
    """Orbits of k-tuples drawn from r fixed roots: C(k+r−1, r−1), twice.

    The formula value and a direct multiset enumeration are both returned so
    callers can compare them; they agree by stars and bars.
    """
    if k < 1:
        raise PipelineError("k must be positive")
    values = [as_rational(r) for r in roots]
    if len(set(values)) != len(values) or not values:
        raise PipelineError("roots must be a nonempty list of distinct rationals")
    r = len(values)
    formula_value = math.comb(k + r - 1, r - 1)
    if formula_value > ORBIT_ENUMERATION_LIMIT:
        raise PipelineError(
            f"enumeration of {formula_value} multisets exceeds the limit"
        )
    enumeration = sum(1 for _ in combinations_with_replacement(sorted(values), k))
    return OrbitCount(formula_value=formula_value, enumeration_value=enumeration)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    informational: bool
    detail: str

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "informational": self.informational,
            "detail": self.detail,
        }


def verify_report(
    report: QuotientReport,
    direct: BettiVector | None = None,
) -> list[CheckResult]:
    """Post-hoc findings on a completed report; never raises."""
    checks = []
    total = sum(report.betti)
    bound = report.bounds.thm_bound_form
    checks.append(
        CheckResult(
            name="betti_sum_within_bound_form",
            passed=total <= bound,
            informational=True,
            detail=(
                f"sum of reported Betti numbers {total} vs bound form {bound} "
                f"at c = {report.bounds.constant_c} (constant unspecified)"
            ),
        )
    )
    tail = report.full_betti.values[report.vanishing_threshold:]
    checks.append(
        CheckResult(
            name="vanishing_above_threshold",
            passed=all(v == 0 for v in tail),
            informational=False,
            detail=(
                f"ambient degrees >= {report.vanishing_threshold} carry {list(tail)}"
            ),
        )
    )
    checks.append(
        CheckResult(
            name="stable_across_resolutions",
            passed=report.stable,
            informational=False,
            detail=(
                f"grids at {report.resolutions[0]} and {report.resolutions[1]} "
                + ("agree" if report.stable else "disagree")
            ),
        )
    )
    if direct is not None:
        t = report.vanishing_threshold
        truncated = tuple(direct.values[:t])
        checks.append(
            CheckResult(
                name="direct_oracle_agreement",
                passed=truncated == report.betti,
                informational=False,
                detail=f"direct oracle {truncated} vs pipeline {report.betti}",
            )
        )
    return checks
