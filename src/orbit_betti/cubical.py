"""Cubical complexes from membership oracles, and their Betti numbers.

A complex is built by sampling an oracle at the centers of a regular grid
over a box.  The oracle's ``batch(points, radius)`` takes an (N, n) float
array, the transpose of an (n, N) one written axis by axis so that each
coordinate is a contiguous column, and returns one integer code per point.
At radius 0 the codes are 0 outside, 1 inside, 2 undecided; at radius
r > 0 a code describes every point of the box within ∞-distance r of the
given one: 1 all inside, 0 all outside, 2 not settled.  A grid of at
least ``_TILED_CELLS`` cells is cut into tiles of ``_TILE`` cells per axis,
clipped at the box.  The oracle is asked once about the tile centres, at
the largest distance r from a tile centre to one of its float cell
centres, and once, at radius 0, about the centres of the cells of the
tiles it left at 2, in row-major order; a settled tile's code holds for
all its cells.  A smaller grid is asked about every cell centre at once.
A top-dimensional cell enters iff its code is not 0 (undecided counts as
inside and is tallied); ``stable_betti`` builds one complex at h and one at
h/2, each from the oracle its factory makes for that resolution.

A complex is stored as its top-cell mask ``top``: a boolean array of the
grid's shape (m_1, …, m_n), true at the cells that entered.  The complex K
is the union of those closed cubes; its lower cells are never stored.
Cells are named axis-wise by elementary-interval codes: 2i for the
degenerate interval [i, i], 2i+1 for [i, i+1]; the dimension of a cell is
its number of odd codes (Kaczynski, Mischaikow & Mrozek, *Computational
Homology*, 2004).  The cells of K that are degenerate exactly along a set S
of axes form one closure layer Q_S: Q_∅ is ``top``, and Q_{S∪{a}} holds,
along a, the m_a + 1 grid vertices, each in when the cell before or the
cell after it along a is in Q_S.  The layers are built depth-first, a path
of them at a time; they give the cell counts and
χ = Σ_S (−1)^{n−|S|}·#Q_S.

For n ≤ 3 the Betti numbers are three counts, with no matrix work.  Two
closed cubes meet iff their indices differ by at most one on every axis,
so b_0 is the number of components of ``top`` under full
(3^n − 1-neighbour) adjacency.  A point outside K lies in an open cell
whose surrounding top cells are all outside and joined through their
shared facets, and two outside top cells that share a facet are joined
through it; so the components of R^n − K are those of the outside top
cells under axis (2n-neighbour) adjacency, the (3^n − 1, 2n) duality of
digital topology (Kong & Rosenfeld, CVGIP 1989).  For n = 3, b_2 is the
number of bounded ones (Alexander duality): the face-adjacent components
of the complement padded with one outside layer, less the unbounded one.
b_1 follows from χ, since b_n = 0, so n = 2 labels no complement
(b_1 = b_0 − χ).  These are the rational Betti numbers.

For n ≥ 4 the Betti numbers come from boundary-matrix ranks over Q,
b_q = dim C_q − rank ∂_q − rank ∂_{q+1} (the exact sparse elimination of
``polys``), after free-face collapses — removing a cell together with its
unique coface is an elementary collapse, a homotopy equivalence — which
shrink grid-scale complexes by orders of magnitude.  That path lists every
cell of K as a code tuple, read from the layers, so it refuses complexes
of more than ``MAX_RANK_CELLS`` cells; it also serves as the test oracle
for the component counts.

Over Q, cohomology and homology ranks of a finite complex agree, so the
reported values serve for either reading.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Protocol, Sequence

import numpy as np

from orbit_betti.polys import RationalLike, as_rational, column_pivots

MAX_AMBIENT_DIM = 6
MAX_CELLS_PER_AXIS = 512
# top cells in one grid, checked before any grid array is allocated
MAX_TOP_CELLS = 2**21
# cells of an n >= 4 complex, checked before they are listed as tuples
MAX_RANK_CELLS = 2**21
# cells per tile edge: build_cubical asks the oracle once per tile first,
# on grids of at least _TILED_CELLS cells; below that the extra call costs
# more than the cells it can settle save (a k = 4, d = 3 quotient on grids
# of 48 and 384 cells took 0.8 ms longer with tiles, none of them settled)
_TILE = 4
_TILED_CELLS = 2**12
# cells per block of the run search in count_components
_RUN_BLOCK = 2**16

Cell = tuple[int, ...]


class CubicalError(ValueError):
    pass


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------


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


def _close_along(layer: np.ndarray, axis: int) -> np.ndarray:
    """The layer one axis further down: along ``axis`` it holds the m + 1
    grid vertices, each in when the cell before or the cell after it is.
    The two end vertices copy the end cells, as if the layer were padded
    with an empty cell at either end of ``axis``; no padded copy of ``top``
    is made, which would be one more array of its size held at once."""
    head = (slice(None),) * axis
    shape = list(layer.shape)
    shape[axis] += 1
    out = np.empty(shape, dtype=bool)
    out[head + (0,)] = layer[head + (0,)]
    out[head + (-1,)] = layer[head + (-1,)]
    np.logical_or(
        layer[head + (slice(None, -1),)],
        layer[head + (slice(1, None),)],
        out=out[head + (slice(1, -1),)],
    )
    return out


def _closure_layers(layer: np.ndarray, first: int = 0, axes: tuple[int, ...] = ()):
    """(S, Q_S) for every set S of axes, depth-first from Q_∅ = ``layer``:
    each layer is built from its parent and lives while its subtree is
    walked, so at most n + 1 of them exist at once."""
    yield axes, layer
    for axis in range(first, layer.ndim):
        yield from _closure_layers(_close_along(layer, axis), axis + 1, axes + (axis,))


@dataclass(eq=False)
class CubicalComplex:
    """The union K of the closed top cells that ``top``, a boolean array of
    the grid's shape (m_i)_i, marks; its lower cells are never stored."""

    top: np.ndarray
    undecided_cells: int = 0

    @property
    def ambient_dim(self) -> int:
        return self.top.ndim

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return self.top.shape

    @property
    def cells(self) -> dict[int, set[Cell]]:
        """Every cell of K by dimension, as code tuples read from the layers."""
        n = self.ambient_dim
        out: dict[int, set[Cell]] = {}
        for axes, layer in _closure_layers(self.top):
            found = np.argwhere(layer)
            if found.size:
                odd = np.array([axis not in axes for axis in range(n)], dtype=int)
                codes = 2 * found + odd
                out.setdefault(n - len(axes), set()).update(map(tuple, codes.tolist()))
        return out

    def _counts(self) -> list[int]:
        """The number of cells of K of each dimension 0..n."""
        n = self.ambient_dim
        counts = [0] * (n + 1)
        for axes, layer in _closure_layers(self.top):
            counts[n - len(axes)] += int(np.count_nonzero(layer))
        return counts

    def cell_count(self, q: int) -> int:
        return self._counts()[q]

    def total_cells(self) -> int:
        return sum(self._counts())

    def euler_characteristic(self) -> int:
        return sum((-1) ** q * count for q, count in enumerate(self._counts()))


class GridOracle(Protocol):
    def batch(self, points: np.ndarray, radius: float = 0.0) -> np.ndarray: ...


def _oracle_codes(oracle: GridOracle, points: np.ndarray, radius: float) -> np.ndarray:
    codes = np.asarray(oracle.batch(points, radius))
    if codes.shape != (len(points),) or codes.dtype.kind not in "iu" or not (
        0 <= codes.min() and codes.max() <= 2
    ):
        raise CubicalError(f"oracle must return {len(points)} integer codes in 0..2")
    return codes


def build_cubical(
    oracle: GridOracle,
    box: Sequence[tuple[RationalLike, RationalLike]],
    resolution: RationalLike,
) -> CubicalComplex:
    """Sample the oracle at grid-cell centers, tile by tile first; the
    complex is the union of the cells whose code is not 0."""
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
    if math.prod(shape) > MAX_TOP_CELLS:
        raise CubicalError(
            f"grid of {math.prod(shape)} cells exceeds the limit {MAX_TOP_CELLS}"
        )

    rows = []
    for lo, m in zip(lows, shape):
        # center i is (lo + h/2) + i·h; int / int rounds as float(Fraction)
        first = lo + h / 2
        den = first.denominator * h.denominator
        start = first.numerator * h.denominator
        step = h.numerator * first.denominator
        rows.append(np.array([(start + i * step) / den for i in range(m)]))

    if math.prod(shape) < _TILED_CELLS:
        codes = np.full(shape, 2, dtype=np.int8)
    else:
        # per axis, the centres of the tiles (runs of _TILE cells, the last
        # one clipped to the box) and the largest distance to their cells,
        # one step up for the rounding of the subtraction
        tile_rows, radius = [], 0.0
        for values in rows:
            m = len(values)
            lasts = np.minimum(np.arange(_TILE - 1, m + _TILE - 1, _TILE), m - 1)
            middles = (values[::_TILE] + values[lasts]) / 2
            gaps = np.abs(values - np.repeat(middles, _TILE)[:m])
            radius = max(radius, math.nextafter(float(gaps.max()), math.inf))
            tile_rows.append(middles)
        # the tile centres, row-major, written axis by axis as one (n, N) array
        grid = np.meshgrid(*tile_rows, indexing="ij")
        tiles = _oracle_codes(oracle, np.stack([axis.ravel() for axis in grid]).T, radius)
        # each tile's code repeated over its cells, axis by axis from the
        # last, and clipped to the grid; the result is contiguous
        codes = tiles.reshape([len(row) for row in tile_rows])
        for axis, m in reversed(list(enumerate(shape))):
            codes = np.repeat(codes, _TILE, axis=axis)[(slice(None),) * axis + (slice(m),)]

    # the cells left at 2 are asked once more, and only their answers can be 2
    undecided = 0
    open_ = np.flatnonzero(codes == 2)
    if open_.size:
        # their centres, row-major, written axis by axis as one (n, N) array
        index = np.unravel_index(open_, shape)
        points = np.stack([row[i] for row, i in zip(rows, index)]).T
        answers = _oracle_codes(oracle, points, 0.0)
        codes.reshape(-1)[open_] = answers
        undecided = int(np.count_nonzero(answers == 2))

    return CubicalComplex(codes != 0, undecided)


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------


def count_components(mask: np.ndarray, *, full: bool) -> int:
    """Number of connected components of the true voxels of ``mask``, under
    full (3^n − 1-neighbour) adjacency if ``full``, else under axis
    (2n-neighbour) adjacency.

    The runs of true voxels along the last axis are the nodes (He, Chao &
    Suzuki 2008).  With a false column on either side, the changes along
    each row give every run as sorted, disjoint keys [s, e) in rows of
    length w + 1; they are found ``_RUN_BLOCK`` cells at a time, so that no
    temporary is the size of the mask (freeing several such arrays at once
    lets the allocator return the heap's top to the system, to be faulted
    in again at the next call).  A run's neighbours lie in the rows at the
    lexicographically positive offsets o of the earlier axes, so that each
    edge is found once: every o in {−1, 0, 1}^{n−1} under full adjacency,
    the unit vectors otherwise.  For an offset of S rows, the runs of row
    r + S that meet [s, e), or [s − 1, e + 1) under full adjacency, are one
    slice, bounded by two ``searchsorted`` calls; the spare key at the end
    of each row keeps the widened slice inside its row.  A row at an axis's
    last coordinate has no neighbour at o = +1 there, one at its first
    coordinate none at o = −1.  Each round hooks the larger root of every
    edge onto the smaller (``np.minimum.at``) and pointer-jumps all parents
    to their roots, until every edge joins equal roots.  Parents only
    decrease, so the links stay a forest, and the roots are the components.
    """
    *lead, w = mask.shape
    rows = mask.reshape(-1, w)
    block = min(len(rows), max(1, _RUN_BLOCK // (w + 2)))
    padded = np.zeros((block, w + 2), dtype=bool)
    changes = []
    for r in range(0, len(rows), block):
        part = rows[r : r + block]
        view = padded[: len(part)]
        view[:, 1:-1] = part
        changes.append(np.flatnonzero(view[:, 1:] != view[:, :-1]) + r * (w + 1))
    changes = np.concatenate(changes)
    starts, ends = np.ascontiguousarray(changes.reshape(-1, 2).T)
    # each run's row, and its coordinate along each earlier axis
    row = starts // (w + 1)
    strides = [math.prod(lead[i + 1 :]) for i in range(len(lead))]
    coords = [row // s % m for s, m in zip(strides, lead)]
    offsets = [
        o for o in product((-1, 0, 1), repeat=len(lead))
        if o > (0,) * len(lead) and (full or sum(map(abs, o)) == 1)
    ]
    widen = int(full)
    u, v = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for offset in offsets:
        shift = sum(o * s for o, s in zip(offset, strides)) * (w + 1)
        keep = np.ones(starts.size, dtype=bool)
        for coord, o, m in zip(coords, offset, lead):
            if o:
                keep &= coord != (m - 1 if o > 0 else 0)
        runs = np.flatnonzero(keep)
        first = np.searchsorted(ends, starts[runs] + shift - widen, "right")
        count = np.searchsorted(starts, ends[runs] + shift + widen, "left") - first
        u.append(np.repeat(runs, count))
        v.append(np.arange(u[-1].size) + np.repeat(first - np.cumsum(count) + count, count))
    u, v = np.concatenate(u), np.concatenate(v)
    parent = np.arange(starts.size)
    while True:
        ru, rv = parent[u], parent[v]
        pending = ru != rv
        if not pending.any():
            break
        ru, rv = ru[pending], rv[pending]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    return int(np.count_nonzero(parent == np.arange(parent.size)))


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


@dataclass(frozen=True)
class BettiVector:
    """Betti numbers b^0..b^n over Q, with the Euler characteristic."""

    values: tuple[int, ...]
    euler: int

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.values):
            raise CubicalError("negative Betti number")
        alternating = sum((-1) ** i * v for i, v in enumerate(self.values))
        if alternating != self.euler:
            raise CubicalError(
                f"euler {self.euler} does not match alternating sum {alternating}"
            )

    def to_json(self) -> dict:
        return {"betti": list(self.values), "euler": self.euler}


def rank_betti(cells: dict[int, set[Cell]], ambient_dim: int) -> tuple[int, ...]:
    """b_0..b_n from boundary-matrix ranks over Q of the collapsed core."""
    core = collapsed_cells(cells)
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
        columns: list[dict[int, Fraction]] = []
        for cell in core[q]:
            col: dict[int, Fraction] = {}
            for f, sign in boundary(cell):
                if f in rows:
                    col[rows[f]] = col.get(rows[f], Fraction(0)) + sign
            columns.append({r: v for r, v in col.items() if v != 0})
        ranks[q] = len(column_pivots(columns))
    values = []
    for q in range(ambient_dim + 1):
        if q in index:
            values.append(len(core[q]) - ranks.get(q, 0) - ranks.get(q + 1, 0))
        else:
            values.append(0)
    return tuple(values)


def betti_numbers(complex_: CubicalComplex) -> BettiVector:
    """Betti numbers: component counts for n ≤ 3, ranks after collapse above."""
    n, top = complex_.ambient_dim, complex_.top
    euler = complex_.euler_characteristic()
    if n <= 3:
        b0 = count_components(top, full=True)
        b2 = 0
        if n == 3:
            outside = np.pad(~top, 1, constant_values=True)
            b2 = count_components(outside, full=False) - 1
        # b_n = 0 in R^n, so χ = b_0 − b_1 + b_2 leaves b_1 as the one unknown
        values = (b0, b0 + b2 - euler, b2, 0)[: n + 1]
    else:
        total = complex_.total_cells()
        if total > MAX_RANK_CELLS:
            raise CubicalError(
                f"{total} cells exceed the rank-path limit {MAX_RANK_CELLS}"
            )
        values = rank_betti(complex_.cells, n)
    return BettiVector(values=values, euler=euler)


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


def stable_betti(
    oracle_factory: Callable[[Fraction], GridOracle],
    box: Sequence[tuple[RationalLike, RationalLike]],
    resolution: RationalLike,
) -> StableBetti:
    """Compute at the given resolution and at half of it; flag agreement.

    ``oracle_factory`` builds the oracle for each resolution, since the
    oracle may depend on it (the thickening of equality atoms does).
    """
    h = as_rational(resolution)
    results = []
    for step in (h, h / 2):
        complex_ = build_cubical(oracle_factory(step), box, step)
        results.append((betti_numbers(complex_), complex_.undecided_cells))
    (coarse, coarse_undecided), (fine, fine_undecided) = results
    return StableBetti(
        betti=fine,
        stable=coarse.values == fine.values,
        coarse=coarse,
        undecided_cells=fine_undecided,
        coarse_undecided_cells=coarse_undecided,
    )
