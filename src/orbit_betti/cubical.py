"""Cubical complexes from membership oracles, and their Betti numbers.

A complex is built by sampling a three-valued oracle (inside / outside /
undecided) at the centers of a regular grid over a box: a top-dimensional
cell enters iff its center is not outside (undecided counts as inside and is
tallied), and the complex is the downward face closure.  Cells are encoded
axis-wise by elementary-interval codes: 2i for the degenerate interval [i,i],
2i+1 for [i, i+1]; the dimension of a cell is its number of odd codes.

Betti numbers come from boundary-matrix ranks, b_q = dim C_q − rank ∂_q −
rank ∂_{q+1}, over Q (exact fractions) or Z/2 (bitset elimination).  Before
any matrix work the complex is simplified by free-face collapses — removing
a cell together with its unique coface is an elementary collapse, a homotopy
equivalence — which usually shrinks grid-scale complexes by orders of
magnitude (a filled region collapses to almost nothing).

Over a field, cohomology and homology ranks of a finite complex agree, so
the reported values serve for either reading.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Mapping, Sequence

import numpy as np

from orbit_betti.polys import RationalLike, as_rational

FIELD_Q = "Q"
FIELD_Z2 = "Z2"

MAX_AMBIENT_DIM = 6
MAX_CELLS_PER_AXIS = 512

Cell = tuple[int, ...]


class CubicalError(ValueError):
    pass


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------


def cell_dim(cell: Cell) -> int:
    return sum(code & 1 for code in cell)


def cell_faces(cell: Cell) -> list[Cell]:
    """The codimension-1 faces: drop one non-degenerate axis to an endpoint."""
    out = []
    for axis, code in enumerate(cell):
        if code & 1:
            lower = cell[:axis] + (code - 1,) + cell[axis + 1 :]
            upper = cell[:axis] + (code + 1,) + cell[axis + 1 :]
            out.append(lower)
            out.append(upper)
    return out


def boundary(cell: Cell) -> list[tuple[Cell, int]]:
    """Signed boundary: for the p-th non-degenerate axis (in axis order),
    the upper face enters with (−1)^p and the lower face with −(−1)^p.
    With this convention ∂∂ = 0 (checked property-style in the tests)."""
    out = []
    p = 0
    for axis, code in enumerate(cell):
        if code & 1:
            sign = -1 if p & 1 else 1
            upper = cell[:axis] + (code + 1,) + cell[axis + 1 :]
            lower = cell[:axis] + (code - 1,) + cell[axis + 1 :]
            out.append((upper, sign))
            out.append((lower, -sign))
            p += 1
    return out


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------


@dataclass
class CubicalComplex:
    ambient_dim: int
    grid_shape: tuple[int, ...]
    resolution: Fraction
    origin: tuple[Fraction, ...]
    cells: dict[int, set[Cell]]
    undecided_cells: int = 0

    def cell_count(self, q: int) -> int:
        return len(self.cells.get(q, ()))

    def total_cells(self) -> int:
        return sum(len(v) for v in self.cells.values())

    def euler_characteristic(self) -> int:
        return sum(
            (-1) ** q * len(cells) for q, cells in self.cells.items()
        )

    def validate_closure(self) -> None:
        """Structural assertion: every face of a stored cell is stored."""
        stored = set()
        for cells in self.cells.values():
            stored.update(cells)
        for cells in self.cells.values():
            for cell in cells:
                for f in cell_faces(cell):
                    if f not in stored:
                        raise CubicalError(f"face {f} of {cell} is missing")

    def to_json(self) -> dict:
        all_cells = sorted(c for cells in self.cells.values() for c in cells)
        return {
            "dim": self.ambient_dim,
            "resolution": float(self.resolution),
            "cells": [list(c) for c in all_cells],
        }


def build_cubical(
    oracle: Callable[[tuple[float, ...]], str],
    box: Sequence[tuple[RationalLike, RationalLike]],
    resolution: RationalLike,
) -> CubicalComplex:
    """Sample the oracle at grid-cell centers and take the face closure.

    ``oracle`` maps a point to "inside" / "outside" / "undecided"; an object
    with a ``batch`` method taking an (N, n) float array and returning an
    integer array (0 outside, 1 inside, 2 undecided) is used vectorised.
    """
    n = len(box)
    if not 1 <= n <= MAX_AMBIENT_DIM:
        raise CubicalError(f"ambient dimension {n} outside 1..{MAX_AMBIENT_DIM}")
    h = as_rational(resolution)
    if h <= 0:
        raise CubicalError("resolution must be positive")
    lows: list[Fraction] = []
    shape: list[int] = []
    for lo, hi in box:
        lo_q, hi_q = as_rational(lo), as_rational(hi)
        count = (hi_q - lo_q) / h
        if count.denominator != 1 or count <= 0:
            raise CubicalError(
                f"resolution {h} does not divide box edge [{lo_q}, {hi_q}]"
            )
        if count > MAX_CELLS_PER_AXIS:
            raise CubicalError(
                f"{count} cells on one axis exceeds the limit {MAX_CELLS_PER_AXIS}"
            )
        lows.append(lo_q)
        shape.append(int(count))

    axes = [
        np.array([float(lo + h * i + h / 2) for i in range(m)])
        for lo, m in zip(lows, shape)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=-1)

    if hasattr(oracle, "batch"):
        codes = np.asarray(oracle.batch(centers))
    else:
        codes = np.empty(centers.shape[0], dtype=np.int8)
        lookup = {"outside": 0, "inside": 1, "undecided": 2}
        for idx in range(centers.shape[0]):
            verdict = oracle(tuple(float(v) for v in centers[idx]))
            try:
                codes[idx] = lookup[verdict]
            except KeyError:
                raise CubicalError(f"oracle returned {verdict!r}") from None

    included = np.flatnonzero(codes != 0)
    undecided = int(np.count_nonzero(codes == 2))

    cells: dict[int, set[Cell]] = {}
    if included.size:
        multi = np.stack(np.unravel_index(included, shape), axis=-1)
        tops = {tuple(int(2 * i + 1) for i in row) for row in multi}
        cells[n] = tops
        current = tops
        for q in range(n - 1, -1, -1):
            lower: set[Cell] = set()
            for cell in current:
                lower.update(cell_faces(cell))
            cells[q] = lower
            current = lower
    complex_ = CubicalComplex(
        ambient_dim=n,
        grid_shape=tuple(shape),
        resolution=h,
        origin=tuple(lows),
        cells=cells,
        undecided_cells=undecided,
    )
    return complex_


# ---------------------------------------------------------------------------
# collapse preprocessing
# ---------------------------------------------------------------------------


def collapsed_cells(cells: dict[int, set[Cell]]) -> dict[int, list[Cell]]:
    """Free-face collapse: repeatedly remove (cell, unique coface) pairs.

    Each removal is an elementary collapse, so homology is unchanged; the
    returned cell sets are usually a tiny core of the input.
    """
    stored: set[Cell] = set()
    for group in cells.values():
        stored.update(group)
    coface_count: dict[Cell, int] = {c: 0 for c in stored}
    cofaces: dict[Cell, list[Cell]] = {c: [] for c in stored}
    for cell in stored:
        for f in cell_faces(cell):
            if f in coface_count:
                coface_count[f] += 1
                cofaces[f].append(cell)

    removed: set[Cell] = set()
    queue = deque(c for c, k in coface_count.items() if k == 1)
    while queue:
        free = queue.popleft()
        if free in removed or coface_count[free] != 1:
            continue
        top = next(c for c in cofaces[free] if c not in removed)
        removed.add(free)
        removed.add(top)
        for g in cell_faces(top):
            if g in coface_count and g not in removed:
                coface_count[g] -= 1
                if coface_count[g] == 1:
                    queue.append(g)
        for g in cell_faces(free):
            if g in coface_count and g not in removed:
                coface_count[g] -= 1
                if coface_count[g] == 1:
                    queue.append(g)

    out: dict[int, list[Cell]] = {}
    for q, group in cells.items():
        kept = sorted(c for c in group if c not in removed)
        if kept:
            out[q] = kept
    return out


# ---------------------------------------------------------------------------
# ranks
# ---------------------------------------------------------------------------


def _rank_z2(columns: list[int]) -> int:
    """Rank over GF(2) of a matrix given as bitmask columns."""
    pivots: dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            low = col.bit_length() - 1
            if low in pivots:
                col ^= pivots[low]
            else:
                pivots[low] = col
                rank += 1
                break
    return rank


def _rank_q(columns: list[dict[int, Fraction]]) -> int:
    """Exact rank over Q; columns are sparse {row: coefficient} maps."""
    pivots: dict[int, dict[int, Fraction]] = {}
    rank = 0
    for col in columns:
        col = dict(col)
        while col:
            low = max(col)
            if low in pivots:
                pivot = pivots[low]
                factor = col[low] / pivot[low]
                for row, value in pivot.items():
                    acc = col.get(row, Fraction(0)) - factor * value
                    if acc == 0:
                        col.pop(row, None)
                    else:
                        col[row] = acc
            else:
                pivots[low] = col
                rank += 1
                break
    return rank


@dataclass(frozen=True)
class BettiVector:
    """Betti numbers b^0..b^n over a field, with the Euler characteristic."""

    field: str
    values: tuple[int, ...]
    euler: int

    def __post_init__(self) -> None:
        if self.field not in (FIELD_Q, FIELD_Z2):
            raise CubicalError(f"unknown field {self.field!r}")
        if any(v < 0 for v in self.values):
            raise CubicalError("negative Betti number")
        alternating = sum((-1) ** i * v for i, v in enumerate(self.values))
        if alternating != self.euler:
            raise CubicalError(
                f"euler {self.euler} does not match alternating sum {alternating}"
            )

    def to_json(self) -> dict:
        return {
            "field": self.field,
            "betti": list(self.values),
            "euler": self.euler,
        }


def betti_numbers(complex_: CubicalComplex, field: str = FIELD_Q) -> BettiVector:
    """Homology ranks from boundary matrices of the collapsed core."""
    if field not in (FIELD_Q, FIELD_Z2):
        raise CubicalError(f"unknown field {field!r}")
    core = collapsed_cells(complex_.cells)
    n = complex_.ambient_dim
    dims = sorted(core)
    index: dict[int, dict[Cell, int]] = {
        q: {cell: i for i, cell in enumerate(core[q])} for q in dims
    }
    ranks: dict[int, int] = {}
    for q in dims:
        if q - 1 not in index:
            ranks[q] = 0
            continue
        rows = index[q - 1]
        if field == FIELD_Z2:
            columns = []
            for cell in core[q]:
                mask = 0
                for f, _sign in boundary(cell):
                    if f in rows:
                        mask ^= 1 << rows[f]
                columns.append(mask)
            ranks[q] = _rank_z2(columns)
        else:
            columns_q: list[dict[int, Fraction]] = []
            for cell in core[q]:
                col: dict[int, Fraction] = {}
                for f, sign in boundary(cell):
                    if f in rows:
                        col[rows[f]] = col.get(rows[f], Fraction(0)) + sign
                columns_q.append({r: v for r, v in col.items() if v != 0})
            ranks[q] = _rank_q(columns_q)
    values = []
    for q in range(n + 1):
        if q in index:
            values.append(len(core[q]) - ranks.get(q, 0) - ranks.get(q + 1, 0))
        else:
            values.append(0)
    euler = complex_.euler_characteristic()
    return BettiVector(field=field, values=tuple(values), euler=euler)


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StableBetti:
    betti: BettiVector
    stable: bool
    coarse: BettiVector
    undecided_cells: int
    coarse_undecided_cells: int

    def to_json(self) -> dict:
        doc = self.betti.to_json()
        doc["stable"] = self.stable
        doc["undecided_cells"] = self.undecided_cells
        doc["coarse_undecided_cells"] = self.coarse_undecided_cells
        return doc


def stable_betti(
    oracle: Callable[[tuple[float, ...]], str],
    box: Sequence[tuple[RationalLike, RationalLike]],
    resolution: RationalLike,
    field: str = FIELD_Q,
    oracle_factory: Callable[[Fraction], object] | None = None,
) -> StableBetti:
    """Compute at the given resolution and at half of it; flag agreement.

    ``oracle_factory``, when given, rebuilds the oracle per resolution —
    needed when the oracle itself has resolution-dependent parameters (the
    thickening of equality atoms does).
    """
    h = as_rational(resolution)
    resolutions = (h, h / 2)
    vectors = []
    undecided = []
    for step in resolutions:
        sampler = oracle_factory(step) if oracle_factory is not None else oracle
        complex_ = build_cubical(sampler, box, step)
        vectors.append(betti_numbers(complex_, field))
        undecided.append(complex_.undecided_cells)
    coarse, fine = vectors
    coarse_undecided, fine_undecided = undecided
    return StableBetti(
        betti=fine,
        stable=coarse.values == fine.values,
        coarse=coarse,
        undecided_cells=fine_undecided,
        coarse_undecided_cells=coarse_undecided,
    )


# ---------------------------------------------------------------------------
# Mayer-Vietoris union bound
# ---------------------------------------------------------------------------


def mv_union_bound(
    intersection_bettis: Mapping[frozenset[int] | tuple[int, ...], BettiVector],
    i: int,
) -> int:
    """Upper bound for b^i of a union from the Betti numbers of the
    intersections: Σ_{j=1}^{i+1} Σ_{card(J)=j} b^{i−j+1}(S_J)."""
    if i < 0:
        raise CubicalError("index must be nonnegative")
    table: dict[frozenset[int], BettiVector] = {}
    for key, vec in intersection_bettis.items():
        table[frozenset(key)] = vec
    indices = sorted({idx for key in table for idx in key})
    if not indices:
        raise CubicalError("no intersection data supplied")
    total = 0
    for j in range(1, i + 2):
        for subset in combinations(indices, j):
            key = frozenset(subset)
            if key not in table:
                raise CubicalError(
                    f"missing Betti data for intersection {sorted(subset)}"
                )
            vec = table[key]
            degree = i - j + 1
            total += vec.values[degree] if degree < len(vec.values) else 0
    return total
