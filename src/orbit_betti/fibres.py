"""Chamber faces, fibres of the power-sum map, image membership, sections.

The ordered chamber x_1 ≤ x_2 ≤ ... ≤ x_k is stratified by compositions λ of
k: the face W_λ consists of points constant on each λ-group, with the parts
counting group sizes *from the largest coordinate down* — λ_1 is the
multiplicity of the top value.  A face is parametrized by strictly decreasing
values t_1 > ... > t_ℓ (ℓ = length λ), t_i carrying weight λ_i, so on a face
the m-th power sum becomes the weighted sum p_{λ,m}(t) = Σ λ_i t_i^m and a
fibre of the truncated power-sum map restricted to a face is the solution set
of

    Σ_i λ_i t_i^m = y_m,   m = 1..d',   t_1 ≥ ... ≥ t_ℓ.

Orienting the parts from the top is what makes the maximal faces (top part a
singleton, comp_max) the strata carrying the *maxima* of p_{d+1} on fibres;
grouping from the bottom instead would hand them the minima, the mirror image
under x ↦ -x.

For d' ≤ 3 the image is cut out by the polynomial sign conditions of
``image_conditions``, which membership and the grid oracle of
:mod:`orbit_betti.pipeline` both decide exactly.  For d' ≥ 4 they are only
necessary, and membership searches the faces.  The solver combines
interval subdivision in directed-rounding floats (a pruned box is
*certified* to contain no solution) with a Krawczyk test on the square
subsystem m = 1..ℓ, which proves small boxes empty or holding a unique root
(Krawczyk 1969; Rump, Acta Numerica 2010), and damped Gauss-Newton on the
leaves neither can settle.  Undecided boxes are counted and reported, never
dropped: membership answers beyond d' = 3 are three-valued, and the section
reports the count.  An "outside" verdict is a proof; an "inside" verdict is
a proof when its root came from a Krawczyk-proved box of a square face
system (ℓ = d'), and otherwise rests on the float residual ≤ tol.

A query's power sums are scaled to integers once (``_PowerSums``), so the
image conditions and the d' ≤ 3 eliminants need no ``Fraction`` arithmetic.

For d' ≤ 3 the section is one point of the closed maximal face, comp_max(k,
d') = {(1, k−1)} or {(1, k−2, 1)}, which holds the unique fibre maximum of
p_{d'+1} (Arnold 1986; Kostov 1989).  ``_closed_section`` computes it, its
x and p_{d'+1} in one pass; the eliminant's one root is certified by two
exact signs at the ends of a dyadic bracket, so the section has one
candidate and is never ambiguous.  For d' ≥ 4,
``_face_fibre`` gives the points ``solve_fibre`` finds over each face of
comp_kd(k, d') but the diagonal (k), which V = 0 decides, to membership and
to the section, which reports a point of several face closures in its
minimal face and returns the candidate maximizing the next power sum
p_{d+1}.  Distinct candidates with values tied within tolerance are flagged
as ambiguous rather than resolved by fiat.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from orbit_betti.compositions import Composition, comp_kd, comp_max, precedes
from orbit_betti.polys import (
    Polynomial,
    RationalLike,
    as_rational,
    float_enclosure,
    interval_mul,
    interval_pow,
    interval_scale,
    pow_bounds,
    round_down,
    round_up,
)


class FibreError(ValueError):
    pass


_FLOAT_RANGE = "the power sums or fibre points are beyond float range"


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Face:
    """The chamber face labelled by a composition of k."""

    lam: Composition

    @property
    def length(self) -> int:
        return self.lam.length

    def embed(self, t: Sequence) -> tuple:
        """The ascending chamber point of W_λ over decreasing parameters t.

        t_i is repeated λ_i times; since λ counts groups from the top, the
        concatenation runs from the largest value down and is reversed into
        chamber order.
        """
        parts = self.lam.parts
        if len(t) != len(parts):
            raise FibreError(f"expected {len(parts)} parameters, got {len(t)}")
        out: list = []
        for value, mult in zip(t, parts):
            out.extend([value] * mult)
        out.reverse()
        return tuple(out)


class _PowerSums:
    """One query's power sums y_1..y_d', scaled to integers once.

    With s the lcm of the denominators of the y_m, Y_m = s^m·y_m is an
    integer.  A polynomial in the y_m of weighted degree w is s^-w times the
    same polynomial in the Y_m, so a sign or a ratio of such polynomials is
    decided on the Y_m in integers.
    """

    __slots__ = ("exact", "scale", "ints")

    def __init__(self, exact: Sequence[Fraction]) -> None:
        self.exact = exact
        ratios = [v.as_integer_ratio() for v in exact]
        self.scale = s = math.lcm(*[den for _, den in ratios])
        self.ints = ints = []
        power = 1
        for num, den in ratios:
            power *= s
            ints.append(num * (power // den))


# ---------------------------------------------------------------------------
# fibre solutions
# ---------------------------------------------------------------------------


# Residual, relative to the weighted power sum Σ λ_i|t_i|^m at a float point,
# that the rounding of that point alone may cause.
_ROUNDING = 2.0**-40


@dataclass(frozen=True)
class FibreSolution:
    """A certified-residual point of a face fibre."""

    face: Face
    t: tuple[float, ...]
    residual: float

    def embedded(self) -> tuple[float, ...]:
        return self.face.embed(self.t)

    @staticmethod
    def make(face: Face, t: Sequence[float], y: Sequence[float], tol: float) -> "FibreSolution":
        """Accept t when each equation, in order, ``_lands``: at large |y| the
        rounding of the float point alone exceeds any absolute tol, and only
        that rounding is forgiven.  A power sum that overflows raises
        OverflowError."""
        residual = 0.0
        for m, (error, scale) in enumerate(_equations(face.lam.parts, t, y), start=1):
            error = abs(error)
            if scale == math.inf:
                raise OverflowError(_FLOAT_RANGE)
            if not _lands(error, scale, tol):
                raise FibreError(f"residual {error} of equation {m} exceeds tolerance {tol}")
            residual = max(residual, error)
        for a, b in zip(t, t[1:]):
            if b - a > tol:
                raise FibreError(f"parameters {t} violate the descending ordering beyond {tol}")
        return FibreSolution(face, tuple(map(float, t)), residual)


def _equations(
    parts: Sequence[int], t: Sequence[float], y: Sequence[float]
) -> Iterator[tuple[float, float]]:
    """For m = 1..d' in turn, Σ λ_i t_i^m − y_m and the size Σ λ_i|t_i|^m,
    summed left to right on every Python version (``sum`` compensates from
    3.12 on)."""
    for m, ym in enumerate(y, start=1):
        total = scale = 0.0
        for w, tv in zip(parts, t):
            term = w * tv**m
            total += term
            scale += abs(term)
        yield total - ym, scale


def _lands(error: float, scale: float, tol: float) -> bool:
    """``make``'s rule, which Newton stops on: error ≤ tol + _ROUNDING·size,
    the size finite."""
    return error <= tol + _ROUNDING * scale < math.inf


# Solver settings the underlying theory is silent about.
_MULTISTARTS = 8
_DEDUP_FACTOR = 10.0
_MAX_DEPTH = 9
_MAX_BOXES = 200_000
_MAX_NEWTON_ITER = 60
_SEED = 20260814


def _dedup_radius(tol: float) -> float:
    """The distance within which two fibre points are one: at a tangential
    double root the position error scales like the square root of the
    residual, so converged Newton limits spread like √tol."""
    return max(_DEDUP_FACTOR * tol, math.sqrt(tol))


@dataclass(frozen=True)
class FibreSearch:
    """Solutions plus the honest count of boxes the search could not settle."""

    solutions: tuple[FibreSolution, ...]
    undecided_boxes: int


# -- tiny dense linear algebra (ℓ ≤ 6, so hand-rolled beats array overhead) --


def _solve_linear(a: list[list[float]], b: list[float]) -> list[float] | None:
    n = len(b)
    m = [row[:] + [bv] for row, bv in zip(a, b)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if abs(m[pivot][col]) < 1e-300:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        lead = m[col][col]
        for r in range(n):
            if r != col and m[r][col] != 0.0:
                factor = m[r][col] / lead
                for c in range(col, n + 1):
                    m[r][c] -= factor * m[col][c]
    return [m[i][n] / m[i][i] for i in range(n)]


def _left_sum(terms) -> float:
    """The float sum of ``terms``, added left to right on every Python
    version (``sum`` compensates float sums from 3.12 on)."""
    total = 0.0
    for term in terms:
        total += term
    return total


def _all_land(equations: list[tuple[float, float]], tol: float) -> bool:
    return all(_lands(abs(error), scale, tol) for error, scale in equations)


def _gauss_newton(
    parts: tuple[int, ...],
    y: list[float],
    t0: Sequence[float],
    tol: float,
    radius: float,
    max_iter: int,
) -> list[float] | None:
    """Damped Gauss-Newton / Levenberg step on the weighted moment system.

    Stops once every equation ``_lands`` within tol/2; returns t if all land
    within tol, else None.  Singular Jacobians (points with coincident
    parameters) fall back to increasing Levenberg damping, which keeps the
    iteration contracting toward isolated double roots at a linear rate —
    good enough at these tolerances.
    """
    ell = len(parts)
    t = [float(v) for v in t0]
    eqs = list(_equations(parts, t, y))
    rnorm = max(abs(v) for v, _ in eqs)
    mu = 0.0
    for _ in range(max_iter):
        if _all_land(eqs, tol * 0.5):
            break
        jac = [
            [m * parts[i] * t[i] ** (m - 1) for i in range(ell)]
            for m in range(1, len(y) + 1)
        ]
        # normal equations with damping: (JᵀJ + μI) δ = -Jᵀ r
        a = [
            [
                _left_sum(jac[m][i] * jac[m][j] for m in range(len(y)))
                + (mu if i == j else 0.0)
                for j in range(ell)
            ]
            for i in range(ell)
        ]
        b = [-_left_sum(jac[m][i] * eqs[m][0] for m in range(len(y))) for i in range(ell)]
        delta = _solve_linear(a, b)
        if delta is None:
            mu = max(mu * 10.0, 1e-10)
            continue
        accepted = False
        alpha = 1.0
        for _ in range(8):
            trial = [tv + alpha * dv for tv, dv in zip(t, delta)]
            trial_eqs = list(_equations(parts, trial, y))
            trial_norm = max(abs(v) for v, _ in trial_eqs)
            if trial_norm < rnorm * (1.0 - 1e-4 * alpha) or _all_land(trial_eqs, tol * 0.25):
                t, eqs, rnorm = trial, trial_eqs, trial_norm
                mu *= 0.3
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            mu = max(mu * 10.0, 1e-10)
            if mu > 1e8:
                return None
        if max(abs(v) for v in t) > 3.0 * radius + 1.0:
            return None
    return t if _all_land(eqs, tol) else None


# -- box tests -----------------------------------------------------------------
#
# Box pruning must be rigorous — a pruned box is a claim that no solution
# exists there — so every box test runs in the directed-rounding float
# intervals of orbit_betti.polys.


def _chamber_feasible(box: list[tuple[float, float]]) -> bool:
    """Can t_1 ≥ ... ≥ t_ℓ hold with t_i in the i-th interval?"""
    running = math.inf
    for lo, hi in box:
        if hi < running:
            running = hi
        if running < lo:
            return False
    return True


def _box_excludes_fibre(
    parts: tuple[int, ...],
    box: list[tuple[float, float]],
    y_bounds: list[tuple[float, float]],
) -> bool:
    """Does directed interval arithmetic refute some moment equation on the box?"""
    for m, (target_lo, target_hi) in enumerate(y_bounds, start=1):
        total_lo = 0.0
        total_hi = 0.0
        for w, (lo, hi) in zip(parts, box):
            plo, phi = interval_pow(lo, hi, m)
            total_lo = round_down(total_lo + round_down(w * plo))
            total_hi = round_up(total_hi + round_up(w * phi))
        if target_hi < total_lo or target_lo > total_hi:
            return True
    return False


# Krawczyk runs on boxes whose widest side is at most this share of the
# search box side 2R: on wide boxes it seldom contracts and costs more than
# the bisections it saves.
_KRAWCZYK_WIDTH = 1 / 16

_EMPTY = "empty"
_UNIQUE = "unique"


def _krawczyk(
    parts: tuple[int, ...],
    box: list[tuple[float, float]],
    y_bounds: list[tuple[float, float]],
) -> tuple[str | None, list[tuple[float, float]]] | None:
    """Krawczyk operator of the square system m = 1..ℓ on the box X.

    K(X) = c − Y·F(c) + (I − Y·J(X))(X − c), with c the centre of X, Y a
    float inverse of J(c) and everything else enclosed by directed rounding,
    holds every root of the square system that lies in X.  Returns
    (_EMPTY, []) when K ∩ X is empty (no root in X), (_UNIQUE, K) when K lies
    in the interior of X (exactly one root in X, and it lies in K), else
    (None, K ∩ X).  None when J(c) is singular.
    """
    ell = len(parts)
    c = [0.5 * (lo + hi) for lo, hi in box]
    jac_c = [[m * w * ci ** (m - 1) for w, ci in zip(parts, c)] for m in range(1, ell + 1)]
    columns = [_solve_linear(jac_c, [float(i == j) for i in range(ell)]) for j in range(ell)]
    if any(col is None for col in columns):
        return None
    inv = [[columns[j][r] for j in range(ell)] for r in range(ell)]
    # F(c) against the target enclosures, and the interval Jacobian J(X)
    f_c = []
    jac_x = []
    for m in range(1, ell + 1):
        s_lo = s_hi = 0.0
        row = []
        for w, ci, (lo, hi) in zip(parts, c, box):
            p_lo, p_hi = pow_bounds(ci, m)
            s_lo = round_down(s_lo + round_down(w * p_lo))
            s_hi = round_up(s_hi + round_up(w * p_hi))
            if m == 1:
                row.append((float(w), float(w)))
            else:
                q_lo, q_hi = interval_pow(lo, hi, m - 1)
                row.append((round_down(m * w * q_lo), round_up(m * w * q_hi)))
        target_lo, target_hi = y_bounds[m - 1]
        f_c.append((round_down(s_lo - target_hi), round_up(s_hi - target_lo)))
        jac_x.append(row)
    offsets = [(round_down(lo - ci), round_up(hi - ci)) for ci, (lo, hi) in zip(c, box)]
    out = []
    unique = True
    for r in range(ell):
        yf_lo = yf_hi = 0.0
        for a, (lo, hi) in zip(inv[r], f_c):
            p_lo, p_hi = interval_scale(a, lo, hi)
            yf_lo = round_down(yf_lo + p_lo)
            yf_hi = round_up(yf_hi + p_hi)
        k_lo = round_down(c[r] - yf_hi)
        k_hi = round_up(c[r] - yf_lo)
        for i, (d_lo, d_hi) in enumerate(offsets):
            # (I − Y·J(X))[r][i]
            s_lo = s_hi = 0.0
            for a, row in zip(inv[r], jac_x):
                p_lo, p_hi = interval_scale(a, *row[i])
                s_lo = round_down(s_lo + p_lo)
                s_hi = round_up(s_hi + p_hi)
            delta = float(r == i)
            m_lo, m_hi = round_down(delta - s_hi), round_up(delta - s_lo)
            p_lo, p_hi = interval_mul(m_lo, m_hi, d_lo, d_hi)
            k_lo = round_down(k_lo + p_lo)
            k_hi = round_up(k_hi + p_hi)
        lo, hi = box[r]
        if k_hi < lo or k_lo > hi:
            return _EMPTY, []
        unique = unique and lo < k_lo and k_hi < hi
        out.append((max(lo, k_lo), min(hi, k_hi)))
    return (_UNIQUE if unique else None), out


def solve_fibre(
    lam: Composition,
    y: Sequence[RationalLike],
    tol: float = 1e-9,
) -> FibreSearch:
    """All chamber solutions of Σ λ_i t_i^m = y_m, m = 1..len(y), t_1 ≥ ... ≥ t_ℓ.

    Interval subdivision over [-R, R]^ℓ, R = √y_2 + 1 (so y_2 is required
    when ℓ > 1), intersected with the descending region; boxes certified
    empty by directed-rounding float intervals are pruned.  When ℓ ≤ d',
    boxes at most 2R·_KRAWCZYK_WIDTH wide also get the Krawczyk test on the
    square subsystem m = 1..ℓ: a box it proves empty is pruned; a box it
    proves to hold a unique root is finished when Newton
    from the centre lands in the proved enclosure (for ℓ < d' the enclosure
    is first tested against the extra equations); any other box shrinks to
    the enclosure.  Damped Newton runs on the leaf boxes that survive (width
    at the depth limit): from the centre, then from random multistarts.  A
    leaf where every start fails is counted as undecided.

    What is certified: an empty result with no undecided boxes proves the
    fibre empty.  A solution from a Krawczyk-finished box of a square system
    (ℓ = d') has an exact root in its enclosure; for ℓ < d', and for
    solutions found on leaf boxes (singular Jacobians, as at coincident
    parameters), only the float residual ≤ tol stands behind it.  Solutions
    closer than ``_dedup_radius(tol)`` are merged.  A one-part face (ℓ = 1)
    keeps its one point t = y_1/k, rounded once, when k·t^m = y_m holds
    exactly or its float residual is ≤ tol, not on ``make``'s rounding
    allowance.
    """
    _check_tol(tol)
    parts = lam.parts
    ell = len(parts)
    y_exact = tuple(as_rational(v) for v in y)
    y_float = [float(v) for v in y_exact]
    d_prime = len(y_float)
    if d_prime < 1:
        raise FibreError("need at least one prescribed power sum")

    if ell == 1:
        t_exact = y_exact[0] / parts[0]
        exact = all(parts[0] * t_exact**m == ym for m, ym in enumerate(y_exact, 1))
        try:
            point = FibreSolution.make(Face(lam), (float(t_exact),), y_float, tol)
        except FibreError:
            return FibreSearch((), 0)
        return FibreSearch((point,) if exact or point.residual <= tol else (), 0)

    if d_prime < 2:
        raise FibreError("a search over ℓ > 1 parameters needs y_2 to bound the box")
    radius = math.sqrt(max(y_float[1], 0.0)) + 1.0
    min_width = max(radius / 2**_MAX_DEPTH, tol)
    rng = np.random.default_rng(_SEED)

    y_bounds = [float_enclosure(v) for v in y_exact]
    face = Face(lam)
    solutions: list[FibreSolution] = []
    dedup_radius = _dedup_radius(tol)

    def record(sol: FibreSolution) -> None:
        for idx, old in enumerate(solutions):
            if max(abs(a - b) for a, b in zip(sol.t, old.t)) <= dedup_radius:
                if sol.residual < old.residual:
                    solutions[idx] = sol
                return
        solutions.append(sol)

    def try_newton(start: Sequence[float], enclosure=None) -> bool:
        """Does damped Newton from start land (in the enclosure, if given)?
        A landing point in the search box is recorded if it passes
        ``FibreSolution.make``, which refuses it out of chamber order."""
        hit = _gauss_newton(parts, y_float, start, tol, radius, _MAX_NEWTON_ITER)
        if hit is None or (enclosure is not None and not all(
            lo <= v <= hi for v, (lo, hi) in zip(hit, enclosure)
        )):
            return False
        if max(abs(v) for v in hit) <= radius + max(1e-9, 1e-6 * radius):
            try:
                record(FibreSolution.make(face, hit, y_float, tol))
            except FibreError:
                pass
        return True

    queue = deque([[(-radius, radius) for _ in range(ell)]])
    undecided = processed = 0
    # the square subsystem m = 1..ℓ has isolated roots only when ℓ ≤ d'
    krawczyk_width = 2 * radius * _KRAWCZYK_WIDTH if ell <= d_prime else -1.0

    while queue:
        if processed >= _MAX_BOXES:
            undecided += len(queue)
            break
        processed += 1
        box = queue.popleft()
        if not _chamber_feasible(box) or _box_excludes_fibre(parts, box, y_bounds):
            continue
        widths = [hi - lo for lo, hi in box]
        widest = max(range(ell), key=widths.__getitem__)
        if widths[widest] <= krawczyk_width:
            test = _krawczyk(parts, box, y_bounds)
            if test is not None:
                verdict, narrowed = test
                # every root of the square subsystem in the box lies in
                # `narrowed`, where the moment equations (m > ℓ among them)
                # are tested again on the smaller box
                if verdict == _EMPTY or _box_excludes_fibre(parts, narrowed, y_bounds):
                    continue
                if verdict == _UNIQUE:
                    center = [0.5 * (lo + hi) for lo, hi in box]
                    if try_newton(center, narrowed):
                        continue
                box = narrowed
                widths = [hi - lo for lo, hi in box]
                widest = max(range(ell), key=widths.__getitem__)
        if widths[widest] <= min_width:
            # A leaf box counts as resolved when Newton launched from its own
            # interior converges: its residual flow drains to a located
            # solution, so the box owes its interval-arithmetic survival to
            # that solution (per-equation enclosures cannot separate nearby
            # level sets of the different moments).  Otherwise multistart, one
            # seeded start at a time up to the first that lands; only a box
            # where every start diverges stays unresolved.  Interior boxes
            # need no Newton: every unpruned root reaches a leaf.
            center = [0.5 * (lo + hi) for lo, hi in box]
            if try_newton(center):
                continue
            if not any(
                try_newton([rng.uniform(lo, hi) for lo, hi in box])
                for _ in range(_MULTISTARTS)
            ):
                undecided += 1
            continue
        lo, hi = box[widest]
        mid = 0.5 * (lo + hi)
        for half in ((lo, mid), (mid, hi)):
            queue.append(box[:widest] + [half] + box[widest + 1 :])

    return FibreSearch(tuple(sorted(solutions, key=lambda s: s.t)), undecided)


# ---------------------------------------------------------------------------
# image membership
# ---------------------------------------------------------------------------

INSIDE = "inside"
OUTSIDE = "outside"
UNDECIDED = "undecided"


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise FibreError(f"tolerance must be finite and positive, got {tol}")


def _moment_conditions(k: int, d_prime: int, p: Sequence) -> tuple:
    """The ``image_conditions`` at p = (p_1, p_2, p_3, ...), in any ring that
    takes integer multiples and powers: Polynomials or integers."""
    if d_prime == 1:
        return ()
    variance = k * p[1] - p[0] ** 2
    if d_prime == 2:
        return (variance,)
    third = k**2 * p[2] - 3 * k * p[0] * p[1] + 2 * p[0] ** 3
    return ((k - 2) ** 2 * variance**3 - (k - 1) * third**2,)


@functools.lru_cache(maxsize=64)
def image_conditions(k: int, d_prime: int, var_count: int, offset: int) -> tuple[Polynomial, ...]:
    """Polynomials P ≥ 0 on the image of R^k (or of the chamber, which meets
    every orbit) under (p_1, ..., p_{d'}), in ``var_count`` variables of
    which offset + m (1-based) is p_m.  With V = k·p_2 − p_1² (k² times the
    variance) and T = k²·p_3 − 3k·p_1·p_2 + 2p_1³ (k³ times the third central
    moment) they are: none for d' = 1; V for d' = 2 (Cauchy–Schwarz); for
    d' = 3 (k−2)²·V³ − (k−1)·T², the bound |skewness| ≤ (k−2)/√(k−1)
    (Wilkins, Ann. Math. Statist. 15, 1944), which implies V ≥ 0.  These
    define the image: the fibres of (p_1, p_2) are connected (Arnold 1986;
    Kostov 1989), so p_3 takes every value between its extremes.  For d' ≥ 4
    the d' = 3 condition on (p_1, p_2, p_3) is only necessary.
    """
    p = [Polynomial.variable(offset + m, var_count) for m in range(1, min(d_prime, 3) + 1)]
    return _moment_conditions(k, d_prime, p)


def _read_query(k: int, d: int, y: Sequence[RationalLike], tol: float) -> _PowerSums:
    """Check y and tol against (k, d) and scale y's power sums once."""
    if k < 1 or d < 1:
        raise FibreError("k and d must be positive")
    _check_tol(tol)
    d_prime = min(k, d)
    y_exact = [as_rational(v) for v in y]
    if len(y_exact) != d_prime:
        raise FibreError(f"expected {d_prime} power sums, got {len(y_exact)}")
    return _PowerSums(y_exact)


def _moment_verdict(
    k: int, d: int, y: Sequence[RationalLike], tol: float
) -> tuple[_PowerSums, str | None]:
    """Read the query and decide ``image_conditions`` exactly.

    Returns the scaled power sums and INSIDE or OUTSIDE when they decide,
    else None.  They decide for d' ≤ 3, and for d' ≥ 4 when
    V = k·Y_2 − Y_1² is 0: V is s² times Σ_{i<j} (x_i − x_j)², so x is the
    diagonal (y_1/k, …, y_1/k), and y is inside iff Y_m·k^(m−1) = Y_1^m for
    every m.  The conditions are evaluated in integers on Y_m = s^m·y_m: a
    condition of weighted degree w (2 for V, 6 for the d' = 3 one) is
    s^w > 0 times its value at y, so its sign is the same.
    """
    sums = _read_query(k, d, y, tol)
    big = sums.ints
    d_prime = len(big)
    if min(_moment_conditions(k, d_prime, big), default=0) < 0:
        return sums, OUTSIDE
    if d_prime >= 4 and k * big[1] == big[0] ** 2:
        diagonal = all(v * k ** m == big[0] ** (m + 1) for m, v in enumerate(big))
        return sums, INSIDE if diagonal else OUTSIDE
    return sums, INSIDE if d_prime <= 3 else None


def image_membership(
    k: int,
    d: int,
    y: Sequence[RationalLike],
    tol: float = 1e-9,
) -> str:
    """Is y in the image of the chamber under the truncated power-sum map?

    For d' ≤ 3 ``image_conditions`` decide exactly.  For d' ≥ 4 a point that
    fails them is "outside"; if V ≠ 0, ``_face_fibre`` searches the faces
    of comp_kd(k, d') but (k) shortest first (a boundary point is found on
    its lower face before the top face's degenerate fibre is searched) and
    stops at the first face with a solution: "inside".  "outside" then needs
    every face certified empty by directed-rounding intervals; anything else
    is "undecided".

    An "inside" found by a Krawczyk-proved unique root of a square face
    system (ℓ = d') carries a proof; one found on an overdetermined face
    (ℓ < d'), or by Newton on a leaf box, rests on the float residual ≤ tol.
    """
    sums, verdict = _moment_verdict(k, d, y, tol)
    if verdict is not None:
        return verdict
    any_undecided = False
    for lam in comp_kd(k, len(sums.exact))[1:]:  # (k) comes first
        search = _face_fibre(lam, sums.exact, tol)
        if search.solutions:
            return INSIDE
        any_undecided = any_undecided or search.undecided_boxes > 0
    return UNDECIDED if any_undecided else OUTSIDE


def _face_fibre(lam: Composition, y: Sequence[Fraction], tol: float) -> FibreSearch:
    """The fibre points ``solve_fibre`` finds over one face, for d' ≥ 4;
    power sums or fibre points past the float range raise FibreError."""
    try:
        return solve_fibre(lam, y, tol=tol)
    except OverflowError as exc:
        raise FibreError(_FLOAT_RANGE) from exc


# ---------------------------------------------------------------------------
# the one root of the maximal face's eliminant, for d' ≤ 3
# ---------------------------------------------------------------------------

# Half-width of the dyadic bracket, relative to max(1, |r|), in which a
# float root r must show an exact sign change.
_BRACKET = 2.0**-40
# Exact bisection narrows a root to a width of 2^-_ROOT_BITS·max(1, |x|).
_ROOT_BITS = 55
# Exact Newton steps a float guess may take before Sturm bisection.
_NEWTON_RETRIES = 3
# A d' ≤ 3 section smaller than 2^-_SMALL_BITS is solved at unit scale.
_SMALL_BITS = 20


def _sign_at(coeffs: Sequence[int], n: int, den: int) -> int:
    """The exact sign of the integer polynomial (highest coefficient first)
    at n/den, den > 0: that of den^deg·p(n/den), the homogenised Horner sum
    Σ c_i·n^(deg−i)·den^i."""
    value, scale = coeffs[0], 1
    for c in coeffs[1:]:
        scale *= den
        value = value * n + c * scale
    return (value > 0) - (value < 0)


def _sturm_roots(coeffs: Sequence[int]) -> list[float]:
    """The real roots of a square-free integer polynomial by exact bisection.

    Sturm's chain counts the roots in (lo, hi] as V(lo) − V(hi); its
    members are positive multiples of the negated remainders, kept in
    integers.  Intervals are halved until each holds one root, which is then
    narrowed to 2^-_ROOT_BITS relative width.  The start (−R, R] with
    Cauchy's R = 1 + max |c_i / c_0| holds every root; every end is an
    integer over |c_0|·2^e.
    """
    chain = [coeffs, [c * (len(coeffs) - 1 - i) for i, c in enumerate(coeffs[:-1])]]
    while True:
        rem, divisor = list(chain[-2]), chain[-1]
        lead, sign = abs(divisor[0]), (divisor[0] > 0) - (divisor[0] < 0)
        while len(rem) >= len(divisor):
            # |lead|·rem − (rem_0·sgn lead)·divisor: a positive multiple of
            # rem, less its leading term, so the signs stay a Sturm chain's
            q = rem[0] * sign
            rem = [lead * r - q * dv for r, dv in zip(rem[1:], divisor[1:])] + [
                lead * r for r in rem[len(divisor):]]
        while rem and rem[0] == 0:
            rem.pop(0)
        if not rem:
            break
        content = math.gcd(*rem)
        chain.append([-c // content for c in rem])

    def variations(n: int, den: int) -> int:
        signs = [s for s in (_sign_at(p, n, den) for p in chain) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    base = abs(coeffs[0])
    bound = base + max(abs(c) for c in coeffs[1:])
    pending = [(-bound, bound, base)]
    roots = []
    while pending:
        lo, hi, den = pending.pop()
        v_lo = variations(lo, den)
        count = v_lo - variations(hi, den)
        if count > 1:
            pending += [(2 * lo, lo + hi, 2 * den), (lo + hi, 2 * hi, 2 * den)]
        elif count == 1:
            while (hi - lo) << _ROOT_BITS > max(den, abs(lo), abs(hi)):
                mid = lo + hi
                lo, hi, den = 2 * lo, 2 * hi, 2 * den
                v_mid = variations(mid, den)
                if v_lo > v_mid:
                    hi = mid
                else:
                    lo, v_lo = mid, v_mid
            roots.append((lo + hi) / (2 * den))
    return sorted(roots)


def _bracket(coeffs: Sequence[int], r: float) -> tuple[bool, float]:
    """Does the quadratic or cubic (integer coefficients, highest first)
    have, exactly, the sign of its leading coefficient at the lower end of
    the dyadic bracket r ± _BRACKET·max(1, |r|) and the opposite sign at the
    upper end?  With simple real roots only, that crossing is the smaller
    root of a quadratic or the middle root of a cubic, alone in the bracket.
    Also the Newton step from r, exact and rounded once.

    One homogenised Horner pass at r = n/den gives the Taylor coefficients
    of den^deg·p at r: P = den^deg·p(r), S = den^(deg−1)·p'(r),
    C = den^(deg−2)·p''(r)/2 and a cubic's a.  The step is
    (n·S − P)/(den·S), or r where S = 0.  Over the half-width w/(den·f) the
    ends' values are positive multiples of E ∓ O: E = P·f² + C·w² and
    O = S·w·f, or for a cubic E = (P·f² + C·w²)·f and O = (S·f² + a·w²)·w.
    """
    n, den = r.as_integer_ratio()
    value, slope, curve, scale = coeffs[0], 0, 0, 1
    for c in coeffs[1:]:
        curve, slope = curve * n + slope, slope * n + value
        scale *= den
        value = value * n + c * scale
    step = (n * slope - value) / (den * slope) if slope else r
    width, width_den = (_BRACKET * max(1.0, abs(r))).as_integer_ratio()
    # both denominators are powers of two: bring both to the larger
    f = max(1, width_den // den)
    width *= max(1, den // width_den)
    even = value * f * f + curve * width * width
    if len(coeffs) == 3:
        odd = slope * width * f
    else:
        even, odd = even * f, (slope * f * f + coeffs[0] * width * width) * width
    lead = (coeffs[0] > 0) - (coeffs[0] < 0)
    low, high = even - odd, even + odd
    return (low > 0) - (low < 0) == lead == (high < 0) - (high > 0), step


def _ordered_root(coeffs: Sequence[int]) -> float:
    """The smaller root of a quadratic, or the middle root of a cubic, with
    integer coefficients (highest first) and simple real roots only.

    The float guess: for the quadratic, of its roots q = −(b + sgn(b)·√Δ)/2a
    (the larger in size) and c/(a·q), the smaller; for the cubic, Viète's
    middle root shift + m·cos(θ/3 − 2π/3) of the depressed cubic t³ + pt + q,
    shift −b/3a, m = 2√(−p/3) and cos θ = 3q/(p·m) = −sgn(a·R)·√(R²/(−4P³))
    for p = P/3a², q = R/27a³.  Each ratio is rounded once from integers, so
    the scale of the coefficients does not change the guess, and none
    divides by a rounded zero.  The guess is kept when ``_bracket``
    certifies its bracket, polished by the exact Newton step the same pass
    gives, kept only inside the bracket, which holds the root.  A guess
    whose bracket misses the root — its error grows with the roots' spread,
    to about √u·spread where acos is near ±1, so a root small beside the
    others misses — is retried after each of up to ``_NEWTON_RETRIES``
    such steps, which square its relative error; only then does Sturm
    bisection find the root.  A root is never accepted on float evidence.
    """
    index = len(coeffs) - 3
    if index == 0:
        a, b, c = coeffs
        b_a, c_a = b / a, c / a
        q = -(b_a + math.copysign(math.sqrt((b * b - 4 * a * c) / (a * a)), b_a)) / 2
        guess = c_a / q if q > 0 else q
    else:
        a, b, c, d = coeffs
        ac, bb, aa = a * c, b * b, a * a
        big_p, big_r = 3 * ac - bb, (2 * bb - 9 * ac) * b + 27 * aa * d
        cos_theta = math.sqrt(big_r * big_r / (-4 * big_p**3)) * (-1 if a * big_r > 0 else 1)
        m = 2 * math.sqrt(-big_p / (9 * aa))
        guess = -b / (3 * a) + m * math.cos(math.acos(cos_theta) / 3 - 2 * math.pi / 3)
    for _ in range(_NEWTON_RETRIES + 1):
        crosses, step = _bracket(coeffs, guess)
        if crosses:
            return step if abs(step - guess) <= _BRACKET * max(1.0, abs(guess)) else guess
        guess = step
    return _sturm_roots(coeffs)[index]


def _section_eliminant(k: int, y: _PowerSums) -> list[int]:
    """The maximal face's eliminant in integers from Y, highest coefficient
    first.  d' = 2, face (1, b), b = k − 1, values u > v: the quadratic
    b(b+1)·v² − 2b·y_1·v + (y_1² − y_2) times s², u = y_1 − b·v; it is
    symmetric about y_1/k, with discriminant 4b·s²·V.  d' = 3, face
    (1, b, 1), b = k − 2, values u ≥ s ≥ v: A = y_1 − b·s, B = y_2 − b·s²
    and C = y_3 − b·s³ are the first three power sums of (u, v), so
    A³ − 3AB + 2C = 0, a cubic in s times s³, with (u, v) = (A ± √(2B − A²))/2.
    """
    scale, big = y.scale, y.ints
    if len(big) == 2:
        b = k - 1
        return [b * k * scale * scale, -2 * b * big[0] * scale, big[0] ** 2 - big[1]]
    b = k - 2
    big1, big2, big3 = big
    return [
        -b * (b + 1) * (b + 2) * scale**3,
        3 * b * (b + 1) * big1 * scale * scale,
        3 * b * (big2 - big1 * big1) * scale,
        big1**3 - 3 * big1 * big2 + 2 * big3,
    ]


@functools.lru_cache(maxsize=256)
def _face(parts: tuple[int, ...]) -> Face:
    """The face of a parts tuple, built once per tuple."""
    return Face(Composition.from_parts(parts))


# ---------------------------------------------------------------------------
# the section: maximize p_{d+1} over the located fibre candidates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SectionResult:
    solution: FibreSolution
    x: tuple[float, ...]
    value: float
    ambiguous: bool
    candidates: int
    undecided_boxes: int


def arnold_section(
    k: int,
    d: int,
    y: Sequence[RationalLike],
    tol: float = 1e-9,
) -> SectionResult:
    """The distinguished fibre point: maximal p_{d+1} over the fibre of y.

    A point that fails ``image_conditions`` raises before any search.  For
    d' ≤ 3, and on the diagonal (V = 0) at any d', the answer is the one
    point of ``_closed_section``, on the closed maximal face: ``candidates``
    is 1, ``ambiguous`` false and ``undecided_boxes`` 0.  Else the
    candidates are the fibre points over every face of comp_kd(k, d') but
    (k), from ``_face_fibre``.  A point whose grouping pattern is coarser
    than the face it was found in is the same geometric point as its copy
    in the coarser face, so candidates within ``_dedup_radius(tol)`` of each
    other are merged and reported in their minimal face.  Distinct
    candidates tied in value within tolerance set the ``ambiguous`` flag.
    When no face yields a candidate the error says "outside" if every face
    was certified empty by directed-rounding intervals and "undecided"
    otherwise.
    ``undecided_boxes`` counts the boxes the search could not settle: a face
    with any may hide a larger value.
    """
    if not d < k:
        raise FibreError(f"section requires d < k, got d={d}, k={k}")
    if d <= 3:
        return _closed_section(k, d, y, tol)
    sums, verdict = _moment_verdict(k, d, y, tol)
    if verdict == OUTSIDE:
        raise FibreError(f"image membership is {OUTSIDE}, not inside")
    if verdict == INSIDE:  # the diagonal, decided in integers
        return _closed_section(k, d, sums.exact, tol)
    raw: list[FibreSolution] = []
    undecided = 0
    for lam in comp_kd(k, len(sums.exact))[1:]:
        search = _face_fibre(lam, sums.exact, tol)
        raw.extend(search.solutions)
        undecided += search.undecided_boxes
    if not raw:
        status = UNDECIDED if undecided else OUTSIDE
        raise FibreError(f"image membership is {status}, not inside")
    return _section_of(raw, d, tol, undecided)


def _closed_section(k: int, d: int, y: Sequence[RationalLike], tol: float) -> SectionResult:
    """The section for d ≤ 3 < k, or for y inside on the diagonal at any
    d < k, in one pass: y is read once, the signs of the image condition Q
    and of V = k·Y_2 − Y_1² place the point, and each power of its at most
    three distinct values is taken once.

    - d = 1, or V = 0: the diagonal, face (k), t = y_1/k.
    - d = 2, V > 0: face (1, k−1), at the quadratic's smaller root.
    - d = 3, Q > 0: face (1, k−2, 1), at the middle of the cubic's three
      simple roots (its discriminant is a positive multiple of s⁶·Q).
      u ≥ s ≥ v is g(s) = 2B − A² − (2s − A)² ≥ 0; at the roots s₋ < s₊ of
      g the cubic is 2(y_3 − max p_3) ≤ 0 and 2(y_3 − min p_3) ≥ 0, so
      under its negative leading coefficient the middle root lies in
      [s₋, s₊].
    - d = 3, Q = 0 < V: the image boundary.  The cubic's double root
      s = (9ad − bc)/(2(b² − 3ac)) is the value repeated k − 1 times: face
      (k−1, 1) when k·s > y_1, else (1, k−1).

    The point must pass ``FibreSolution.make``'s checks, made here; a face
    with fewer than three values pads with weight 0 at 0.0, whose +0.0 terms
    change no sum.

    Off the diagonal, a point of size √y_2 ≈ 2^e < 2^-_SMALL_BITS,
    e = ⌊bitlen(Y_2)/2⌋ − bitlen(s), is solved at the exactly rescaled
    y'_m = 2^(−m·e)·y_m and scaled back, t and residual times 2^e: below that
    size the absolute floors (the root's 2^-40 bracket, Sturm's 2^-55 width,
    tol) are not small beside the point, and from about 2^-340 on its power
    sums round to subnormals or to 0.  So the section at the power sums of
    2^-j·x is 2^-j times the one at x.
    """
    sums = _read_query(k, d, y, tol)
    big, scale = sums.ints, sums.scale
    conditions = _moment_conditions(k, d, big)
    if conditions and conditions[0] < 0:
        raise FibreError(f"image membership is {OUTSIDE}, not inside")
    diagonal = d == 1 or k * big[1] == big[0] ** 2
    shift = 0 if diagonal else big[1].bit_length() // 2 - scale.bit_length()
    if shift < -_SMALL_BITS:
        sums = _PowerSums([v * 2 ** (-m * shift) for m, v in enumerate(sums.exact, start=1)])
        big, scale = sums.ints, sums.scale
    else:
        shift = 0
    try:
        power, floats = 1, []
        for v in big:
            power *= scale
            floats.append(v / power)
        if diagonal:
            lam, t1, t2, t3 = (k,), big[0] / (scale * k), 0.0, 0.0
        elif d == 2:
            v = _ordered_root(_section_eliminant(k, sums))
            lam, t1, t2, t3 = (1, k - 1), floats[0] - (k - 1) * v, v, 0.0
        elif conditions[0] > 0:
            b = k - 2
            mid = _ordered_root(_section_eliminant(k, sums))
            pair_sum = floats[0] - b * mid
            pair_gap = math.sqrt(max(2 * (floats[1] - b * mid * mid) - pair_sum**2, 0.0))
            lam, t1, t2, t3 = (1, b, 1), (pair_sum + pair_gap) / 2, mid, (pair_sum - pair_gap) / 2
        else:
            a, b, c, e = _section_eliminant(k, sums)
            num, den = 9 * a * e - b * c, 2 * (b * b - 3 * a * c)
            # den = 2a²(s − s')² > 0, s' the simple root; the other value is
            # y_1 − (k−1)·s, rounded once
            single = (big[0] * den - (k - 1) * num * scale) / (scale * den)
            if k * num * scale > big[0] * den:
                lam, t1, t2, t3 = (k - 1, 1), num / den, single, 0.0
            else:
                lam, t1, t2, t3 = (1, k - 1), single, num / den, 0.0
        w1, w2, w3 = (*lam, 0, 0)[:3]
        t = (t1, t2, t3)[: len(lam)]
        residual = 0.0
        for m, ym in enumerate(floats, start=1):
            a, b, c = w1 * t1**m, w2 * t2**m, w3 * t3**m
            total = 0.0 + a + b + c
            size = abs(a) + abs(b) + abs(c)
            error = abs(total - ym)
            if size == math.inf:
                raise OverflowError(_FLOAT_RANGE)
            if not _lands(error, size, tol):
                raise FibreError(f"residual {error} of equation {m} exceeds tolerance {tol}")
            if error > residual:
                residual = error
        if w2 and t2 - t1 > tol or w3 and t3 - t2 > tol:
            raise FibreError(f"parameters {t} violate the descending ordering beyond {tol}")
        if shift:
            t1, t2, t3 = math.ldexp(t1, shift), math.ldexp(t2, shift), math.ldexp(t3, shift)
            t, residual = (t1, t2, t3)[: len(lam)], math.ldexp(residual, shift)
        value = 0.0 + w1 * t1 ** (d + 1) + w2 * t2 ** (d + 1) + w3 * t3 ** (d + 1)
    except OverflowError as exc:
        raise FibreError(_FLOAT_RANGE) from exc
    if not math.isfinite(value):
        raise FibreError(_FLOAT_RANGE)
    x = (t3,) * w3 + (t2,) * w2 + (t1,) * w1
    return SectionResult(FibreSolution(_face(lam), t, residual), x, value, False, 1, 0)


def _next_power_sum(sol: FibreSolution, d: int) -> float:
    """p_{d+1} at the solution; past the float range a FibreError."""
    try:
        value = _left_sum(w * tv ** (d + 1) for w, tv in zip(sol.face.lam.parts, sol.t))
    except OverflowError as exc:
        raise FibreError(_FLOAT_RANGE) from exc
    if not math.isfinite(value):
        raise FibreError(_FLOAT_RANGE)
    return value


def _section_of(
    raw: Sequence[FibreSolution], d: int, tol: float, undecided_boxes: int
) -> SectionResult:
    """Group candidates by embedded point, keep each in its minimal face and
    return the one of largest p_{d+1}, flagging near ties."""
    dedup_radius = _dedup_radius(tol)
    groups: list[list[FibreSolution]] = []
    for sol in raw:
        x = sol.embedded()
        for group in groups:
            gx = group[0].embedded()
            if max(abs(a - b) for a, b in zip(x, gx)) <= dedup_radius:
                group.append(sol)
                break
        else:
            groups.append([sol])

    candidates: list[tuple[float, FibreSolution]] = []
    for group in groups:
        # minimal face first, then lowest residual
        group.sort(key=lambda s: (s.face.length, s.residual))
        candidates.append((_next_power_sum(group[0], d), group[0]))
    candidates.sort(key=lambda c: -c[0])

    top_value, top = candidates[0]
    tie_tol = max(100.0 * tol, 1e-6)
    ambiguous = len(candidates) > 1 and (top_value - candidates[1][0]) <= tie_tol
    return SectionResult(
        solution=top,
        x=top.embedded(),
        value=top_value,
        ambiguous=ambiguous,
        candidates=len(candidates),
        undecided_boxes=undecided_boxes,
    )


def is_below_some_maximal(lam: Composition, k: int, d: int) -> bool:
    return any(precedes(lam, top) for top in comp_max(k, min(k, d)))
