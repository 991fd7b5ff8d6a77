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
all its cells.  A smaller grid is asked about every cell centre at once.  A top-dimensional cell enters
iff its code is not 0 (undecided counts as inside and is tallied), and the
complex is the downward face closure; ``stable_betti`` builds one at h and
one at h/2, each from the oracle its factory makes for that resolution.
Cells are encoded axis-wise by elementary-interval codes: 2i for the
degenerate interval [i,i], 2i+1 for [i, i+1]; the dimension of a cell is
its number of odd codes.  A complex on a grid of m_1 × … × m_n cells is stored as one
boolean bitmap of shape (2m_1+1, …, 2m_n+1) indexed by these codes
(Wagner, Chen & Vuçini 2011; Kaczynski, Mischaikow & Mrozek, *Computational
Homology*, 2004).  On this doubled grid two cells are axis neighbours
exactly when one is a facet of the other.

For n ≤ 3 the Betti numbers are counts of connected components, with no
matrix work: b_0 is the number of components of the bitmap under axis
adjacency; for n = 3, b_2 is the number of bounded components of the
complement (Alexander duality — the open cells outside K, joined through
shared faces, are the components of R^n minus K); b_1 follows from the
Euler characteristic, since b_n = 0, so n = 2 labels no complement
(b_1 = b_0 − χ).  These are the rational Betti numbers.

For n ≥ 4 the Betti numbers come from boundary-matrix ranks over Q,
b_q = dim C_q − rank ∂_q − rank ∂_{q+1} (the exact sparse elimination of
``polys``), after free-face collapses — removing a cell together with its
unique coface is an elementary collapse, a homotopy equivalence — which
shrink grid-scale complexes by orders of magnitude.  That path holds every
cell as a tuple, so it refuses complexes of more than ``MAX_RANK_CELLS``
cells; it also serves as the test oracle for the component counts.

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


def _parity_views(bitmap: np.ndarray):
    """(parity vector, strided view) for each of the 2^n cell types: the
    view holds the cells whose codes have exactly these parities."""
    for parity in product((0, 1), repeat=bitmap.ndim):
        yield parity, bitmap[tuple(slice(p, None, 2) for p in parity)]


def close_bitmap(bitmap: np.ndarray) -> None:
    """Face closure in place: along each axis, a cell with an odd code
    there sets its two facets (the even codes on either side)."""
    for axis in range(bitmap.ndim):
        moved = np.moveaxis(bitmap, axis, 0)
        odd = moved[1::2]
        moved[:-1:2] |= odd
        moved[2::2] |= odd


@dataclass(eq=False)
class CubicalComplex:
    """A face-closed set of cells: ``bitmap`` has shape (2m_i + 1)_i over a
    grid of (m_i)_i cells and is indexed by elementary-interval codes."""

    bitmap: np.ndarray
    undecided_cells: int = 0

    @property
    def ambient_dim(self) -> int:
        return self.bitmap.ndim

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple(m // 2 for m in self.bitmap.shape)

    @property
    def cells(self) -> dict[int, set[Cell]]:
        """The stored cells by dimension, read from the bitmap."""
        out: dict[int, set[Cell]] = {}
        for parity, view in _parity_views(self.bitmap):
            found = np.argwhere(view)
            if found.size:
                codes = 2 * found + np.array(parity)
                out.setdefault(sum(parity), set()).update(map(tuple, codes.tolist()))
        return out

    def cell_count(self, q: int) -> int:
        return sum(
            int(np.count_nonzero(view))
            for parity, view in _parity_views(self.bitmap)
            if sum(parity) == q
        )

    def total_cells(self) -> int:
        return int(np.count_nonzero(self.bitmap))

    def euler_characteristic(self) -> int:
        return sum(
            (-1) ** sum(parity) * int(np.count_nonzero(view))
            for parity, view in _parity_views(self.bitmap)
        )

    def validate_closure(self) -> None:
        """Structural assertion: every face of a stored cell is stored."""
        for axis in range(self.ambient_dim):
            moved = np.moveaxis(self.bitmap, axis, 0)
            odd = moved[1::2]
            missing = np.argwhere(odd & ~(moved[:-1:2] & moved[2::2]))
            if missing.size:
                code = [int(i) for i in missing[0][1:]]
                code.insert(axis, 2 * int(missing[0][0]) + 1)
                raise CubicalError(f"a face of cell {tuple(code)} is missing")


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
    """Sample the oracle at grid-cell centers, tile by tile first, and take
    the face closure."""
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

    open_ = np.flatnonzero(codes == 2)
    if open_.size:
        # their centres, row-major, written axis by axis as one (n, N) array
        index = np.unravel_index(open_, shape)
        points = np.stack([row[i] for row, i in zip(rows, index)]).T
        codes.reshape(-1)[open_] = _oracle_codes(oracle, points, 0.0)

    bitmap = np.zeros(tuple(2 * m + 1 for m in shape), dtype=bool)
    np.not_equal(codes, 0, out=bitmap[(slice(1, None, 2),) * n])
    close_bitmap(bitmap)
    return CubicalComplex(bitmap, int(np.count_nonzero(codes == 2)))


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------


def count_components(mask: np.ndarray) -> int:
    """Number of connected components of the true voxels of ``mask`` under
    axis (2n-neighbour) adjacency.

    The runs of true voxels along the last axis are the nodes (He, Chao &
    Suzuki 2008).  With a false column on either side, the changes along
    each row give every run as sorted, disjoint keys [s, e) in rows of
    length w + 1; they are found ``_RUN_BLOCK`` cells at a time, so that no
    temporary is the size of the mask (freeing several such arrays at once
    lets the allocator return the heap's top to the system, to be faulted
    in again at the next call).  Along an earlier axis with a step of S
    rows, the runs of row
    r + S that meet [s, e) are one slice, bounded by two ``searchsorted``
    calls at s + S(w+1) and e + S(w+1); rows at that axis's last coordinate
    have no such neighbour.  Each round hooks the larger root of every edge
    onto the smaller (``np.minimum.at``) and pointer-jumps all parents to
    their roots, until every edge joins equal roots.  Parents only
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
    u, v = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    step = 1
    for m in reversed(lead):
        shift = step * (w + 1)
        runs = np.flatnonzero(starts // shift % m != m - 1)
        first = np.searchsorted(ends, starts[runs] + shift, "right")
        count = np.searchsorted(starts, ends[runs] + shift, "left") - first
        u.append(np.repeat(runs, count))
        v.append(np.arange(u[-1].size) + np.repeat(first - np.cumsum(count) + count, count))
        step *= m
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


def _betti_by_components(complex_: CubicalComplex, euler: int) -> tuple[int, ...]:
    """b_0..b_n for n ≤ 3 from component counts, duality (n = 3) and χ."""
    n = complex_.ambient_dim
    b0 = count_components(complex_.bitmap)
    b2 = 0
    if n == 3:
        b2 = count_components(np.pad(~complex_.bitmap, 1, constant_values=True)) - 1
    # b_n = 0 in R^n, so χ = b_0 − b_1 + b_2 leaves b_1 as the one unknown
    return (b0, b0 + b2 - euler, b2, 0)[: n + 1]


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
    euler = complex_.euler_characteristic()
    if complex_.ambient_dim <= 3:
        values = _betti_by_components(complex_, euler)
    else:
        total = complex_.total_cells()
        if total > MAX_RANK_CELLS:
            raise CubicalError(
                f"{total} cells exceed the rank-path limit {MAX_RANK_CELLS}"
            )
        values = rank_betti(complex_.cells, complex_.ambient_dim)
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
