"""Cubical homology engine.

Hand-built complexes with textbook Betti numbers pin the conventions; sympy
ranks over Q provide an independent check that the collapse-then-reduce
path computes the same homology as plain dense linear algebra, and that
path in turn checks the component counts used for n ≤ 3.  The doubled
bitmap of the face closure, built here only, checks the closure layers'
cell counts and cells.
"""

import itertools
import math
import time
import tracemalloc
from collections import deque
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import sympy
from hypothesis import given, strategies as st

from orbit_betti import cubical
from orbit_betti.cubical import (
    BettiVector,
    CubicalComplex,
    CubicalError,
    MAX_RANK_CELLS,
    boundary,
    build_cubical,
    cell_faces,
    betti_numbers,
    collapsed_cells,
    count_components,
    rank_betti,
    stable_betti,
)

from helpers import cell_dim


def complex_from_tops(ambient_dim: int, tops: list[tuple[int, ...]]) -> CubicalComplex:
    """The complex of the listed top cells on a grid of 4 cells per axis."""
    top = np.zeros((4,) * ambient_dim, dtype=bool)
    for cell in tops:
        top[cell] = True
    return CubicalComplex(top)


def face_closure(cells: list[tuple[int, ...]]) -> dict[int, set[tuple[int, ...]]]:
    """Explicit cells of any dimension and all their faces, by dimension."""
    out: dict[int, set[tuple[int, ...]]] = {}
    pending = list(cells)
    while pending:
        cell = pending.pop()
        if cell not in out.setdefault(cell_dim(cell), set()):
            out[cell_dim(cell)].add(cell)
            pending.extend(cell_faces(cell))
    return out


def closure_bitmap(top: np.ndarray) -> np.ndarray:
    """The face closure of a top-cell mask on the doubled grid, indexed by
    elementary-interval codes: along each axis, a cell with an odd code
    there sets its two facets (the even codes on either side)."""
    bitmap = np.zeros(tuple(2 * m + 1 for m in top.shape), dtype=bool)
    bitmap[(slice(1, None, 2),) * top.ndim] = top
    for axis in range(top.ndim):
        moved = np.moveaxis(bitmap, axis, 0)
        odd = moved[1::2]
        moved[:-1:2] |= odd
        moved[2::2] |= odd
    return bitmap


def parity_views(bitmap: np.ndarray):
    """(parity vector, strided view) for each of the 2^n cell types."""
    for parity in itertools.product((0, 1), repeat=bitmap.ndim):
        yield parity, bitmap[tuple(slice(p, None, 2) for p in parity)]


def unsettled(points):
    """The codes of a test oracle that settles no tile: 2 everywhere."""
    return np.full(len(points), 2, dtype=np.int8)


def codes_oracle(codes):
    """A grid oracle whose batch is ``codes(points)`` on the (N, n) array at
    radius 0; it settles no tile."""
    return SimpleNamespace(
        batch=lambda points, radius=0.0: unsettled(points) if radius else codes(points)
    )


def mask_oracle(inside):
    """A grid oracle: code 1 where the boolean array ``inside(points)`` holds."""
    return codes_oracle(lambda points: inside(points).astype(np.int8))


ALL = mask_oracle(lambda p: np.ones(len(p), dtype=bool))
NONE = mask_oracle(lambda p: np.zeros(len(p), dtype=bool))


def annulus(p):
    r2 = p[:, 0] ** 2 + p[:, 1] ** 2
    return (1.0 <= r2) & (r2 <= 4.0)


def naive_betti_q(complex_: CubicalComplex) -> list[int]:
    """Independent oracle: dense sympy ranks, no collapsing."""
    n = complex_.ambient_dim
    index = {
        q: {c: i for i, c in enumerate(sorted(cells))}
        for q, cells in complex_.cells.items()
    }
    ranks = {}
    for q, cells in index.items():
        if q - 1 not in index or not cells:
            ranks[q] = 0
            continue
        rows = index[q - 1]
        mat = sympy.zeros(len(rows), len(cells))
        for c, j in cells.items():
            for f, sign in boundary(c):
                if f in rows:
                    mat[rows[f], j] += sign
        ranks[q] = mat.rank()
    out = []
    for q in range(n + 1):
        if q in index:
            out.append(len(index[q]) - ranks.get(q, 0) - ranks.get(q + 1, 0))
        else:
            out.append(0)
    return out


# ---------------------------------------------------------------------------
# cells and boundary algebra
# ---------------------------------------------------------------------------


def test_cell_dim_and_faces():
    assert cell_dim((3, 4)) == 1  # [1,2] x [2,2]
    assert cell_dim((3, 5)) == 2
    assert set(cell_faces((3, 4))) == {(2, 4), (4, 4)}
    assert set(cell_faces((3, 5))) == {(2, 5), (4, 5), (3, 4), (3, 6)}
    assert cell_faces((2, 4)) == []


@given(
    st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=4)
)
def test_boundary_squares_to_zero(codes):
    """∂∂ = 0 with the alternating-sign convention."""
    cell = tuple(codes)
    acc: dict = {}
    for face, sign in boundary(cell):
        for face2, sign2 in boundary(face):
            acc[face2] = acc.get(face2, 0) + sign * sign2
    assert all(v == 0 for v in acc.values())


# ---------------------------------------------------------------------------
# hand-built complexes
# ---------------------------------------------------------------------------


def test_single_vertex():
    """A vertex is no union of top cells: its cell set goes to the rank
    path, and one top cell of the line has the same Betti numbers."""
    assert rank_betti(face_closure([(0,)]), 1) == (1, 0)
    assert betti_numbers(CubicalComplex(np.ones(1, dtype=bool))).values == (1, 0)


def test_hollow_square_is_a_circle():
    # the 8 unit edges of the square [0,2]x[0,2] boundary in code coordinates
    # (grid vertices 0,1,2 carry even codes 0,2,4)
    edges = [
        (1, 0), (3, 0), (1, 4), (3, 4),
        (0, 1), (0, 3), (4, 1), (4, 3),
    ]
    assert rank_betti(face_closure(edges), 2) == (1, 1, 0)
    # the same circle thickened: a 3 x 3 block of squares without its centre
    top = np.ones((3, 3), dtype=bool)
    top[1, 1] = False
    vec = betti_numbers(CubicalComplex(top))
    assert vec.values == (1, 1, 0)
    assert vec.euler == 0


def test_filled_square_is_contractible():
    c = complex_from_tops(2, [(0, 0)])
    assert betti_numbers(c).values == (1, 0, 0)
    assert rank_betti(c.cells, 2) == (1, 0, 0)


def test_two_disjoint_filled_squares():
    c = complex_from_tops(2, [(0, 0), (2, 2)])
    assert betti_numbers(c).values == (2, 0, 0)


def test_torus_from_identifications_is_out_of_scope_but_s1xinterval_works():
    # a 3x1 strip of squares bent into a ring is beyond plain grid encoding;
    # instead: ring of 8 squares around a hole (annulus)
    tops = [
        (0, 0), (1, 0), (2, 0),
        (0, 1), (2, 1),
        (0, 2), (1, 2), (2, 2),
    ]
    c = complex_from_tops(2, tops)
    assert betti_numbers(c).values == (1, 1, 0)
    assert rank_betti(c.cells, 2) == (1, 1, 0)


def test_hollow_cube_surface_is_a_sphere():
    squares = []
    for axis in range(3):
        for side in (0, 6):
            for a in (1, 3, 5):
                for b in (1, 3, 5):
                    code = [a, b]
                    code.insert(axis, side)
                    squares.append(tuple(code))
    assert rank_betti(face_closure(squares), 3) == (1, 0, 1, 0)
    # the same sphere thickened: a 3^3 block of cubes without its centre
    top = np.ones((3, 3, 3), dtype=bool)
    top[1, 1, 1] = False
    c = CubicalComplex(top)
    vec = betti_numbers(c)
    assert vec.values == (1, 0, 1, 0)
    assert vec.euler == 2
    assert rank_betti(c.cells, 3) == (1, 0, 1, 0)


def test_collapse_preserves_homology_against_naive_ranks():
    rng = np.random.default_rng(5)
    for _ in range(12):
        tops = {
            (int(a), int(b))
            for a, b in zip(rng.integers(0, 4, size=8), rng.integers(0, 4, size=8))
        }
        c = complex_from_tops(2, sorted(tops))
        assert list(betti_numbers(c).values) == naive_betti_q(c)


def test_collapsed_core_is_small():
    c = complex_from_tops(2, [(i, j) for i in range(4) for j in range(4)])
    core = collapsed_cells(c.cells)
    # a filled 4x4 block of squares is collapsible to a point
    assert sum(len(v) for v in core.values()) == 1


def bfs_components(mask: np.ndarray, full: bool = False) -> int:
    """Plain breadth-first count of components: the 2n axis neighbours, or
    all 3^n − 1 neighbours if ``full``."""
    steps = [
        step for step in itertools.product((-1, 0, 1), repeat=mask.ndim)
        if sum(map(abs, step)) == 1 or (full and any(step))
    ]
    seen = np.zeros(mask.shape, dtype=bool)
    count = 0
    for start in map(tuple, np.argwhere(mask)):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        queue = deque([start])
        while queue:
            here = queue.popleft()
            for step in steps:
                there = tuple(i + s for i, s in zip(here, step))
                if all(0 <= i < m for i, m in zip(there, mask.shape)) and mask[there] and not seen[there]:
                    seen[there] = True
                    queue.append(there)
    return count


def test_count_components_matches_bfs():
    rng = np.random.default_rng(11)
    for _ in range(150):
        n = int(rng.integers(1, 4))
        shape = tuple(int(m) for m in rng.integers(1, 10, size=n))
        mask = rng.random(shape) < rng.uniform(0.0, 1.0)
        assert count_components(mask, full=False) == bfs_components(mask)


def test_full_adjacency_count_matches_bfs():
    rng = np.random.default_rng(12)
    for trial in range(300):
        n = 1 + trial % 3
        shape = tuple(int(m) for m in rng.integers(1, 10, size=n))
        mask = rng.random(shape) < rng.uniform(0.0, 1.0)
        assert count_components(mask, full=True) == bfs_components(mask, full=True)


def serpentine(m: int) -> np.ndarray:
    """A one-cell corridor on m × m: full even rows, joined at alternating ends."""
    mask = np.zeros((m, m), dtype=bool)
    mask[::2] = True
    mask[1::4, -1] = True
    mask[3::4, 0] = True
    return mask


def staircase(m: int) -> np.ndarray:
    """Cells (i, i) and (i, i + 1): one path that steps down every column."""
    mask = np.zeros((m, m + 1), dtype=bool)
    mask[np.arange(m), np.arange(m)] = True
    mask[np.arange(m), np.arange(m) + 1] = True
    return mask


def adversarial_masks():
    """(name, mask, components): shapes a row-flattened labelling can get wrong."""
    wrap = np.zeros((2, 5), dtype=bool)
    wrap[0, -1] = wrap[1, 0] = True  # last column of row 0, first of row 1
    slabs = np.zeros((2, 3, 4), dtype=bool)
    slabs[0, -1] = slabs[1, 0] = True  # last row of slab 0, first row of slab 1
    wrap3 = np.zeros((3, 2, 4), dtype=bool)
    wrap3[0, 1, -1] = wrap3[1, 0, 0] = wrap3[1, 1, 3] = wrap3[2, 0, 0] = True
    column = np.zeros((7, 1), dtype=bool)
    column[[0, 1, 3, 5, 6]] = True
    corridor = serpentine(15)
    return [
        ("row wrap", wrap, 2),
        ("runs meeting only at corners", np.eye(4, dtype=bool) | np.eye(4, k=2, dtype=bool), 6),
        ("slab wrap", slabs, 2),
        ("wraps joined only along the first axis", wrap3, 2),
        ("serpentine 63", serpentine(63), 1),
        ("serpentine slabs", np.stack([corridor, np.zeros_like(corridor), corridor.T]), 2),
        ("staircase", staircase(40), 1),
        ("last axis of length 1", column, 3),
        ("size-1 leading axes", np.array([[[True, False, True, True]]]), 2),
        ("size-1 axes only", np.ones((1, 1, 1), dtype=bool), 1),
        ("all false", np.zeros((4, 3, 5), dtype=bool), 0),
        ("all true", np.ones((4, 3, 5), dtype=bool), 1),
    ]


@pytest.mark.parametrize("name, mask, expected", adversarial_masks())
def test_count_components_on_adversarial_masks(name, mask, expected):
    assert bfs_components(mask) == expected
    assert count_components(mask, full=False) == expected


def corner_contacts():
    """(name, top mask, components under axis and under full adjacency):
    cells that meet only at corners or along edges, which full adjacency
    joins, and two that only a row-flattened widening would join."""
    checkerboard = np.indices((7, 6)).sum(axis=0) % 2 == 0
    corner = np.zeros((4, 4, 4), dtype=bool)
    corner[:2, :2, :2] = corner[2:, 2:, 2:] = True
    edge = np.zeros((4, 4, 2), dtype=bool)
    edge[:2, :2] = edge[2:, 2:] = True
    wrapped = np.zeros((3, 5), dtype=bool)
    wrapped[0, -1] = wrapped[1, 0] = True  # diagonal only across the row end
    return [
        ("checkerboard", checkerboard, 21, 1),
        ("cubes meeting at a corner", corner, 2, 1),
        ("cubes meeting along an edge", edge, 2, 1),
        ("diagonal across a row end", wrapped, 2, 2),
    ]


@pytest.mark.parametrize("name, top, apart, joined", corner_contacts())
def test_full_adjacency_joins_corner_and_edge_contacts(name, top, apart, joined):
    """Closed cubes meeting only at a corner or along an edge are one
    component of the complex; the rank path agrees on every Betti number."""
    assert bfs_components(top) == count_components(top, full=False) == apart
    assert bfs_components(top, full=True) == count_components(top, full=True) == joined
    c = CubicalComplex(top)
    assert betti_numbers(c).values == rank_betti(c.cells, top.ndim)
    assert betti_numbers(c).values[0] == joined


def random_complex(rng, n: int) -> CubicalComplex:
    """Random top cells on a random grid of at most 6 (n ≤ 2) or 4 cells
    per axis."""
    shape = tuple(int(m) for m in rng.integers(1, 7 if n <= 2 else 5, size=n))
    return CubicalComplex(rng.random(shape) < rng.uniform(0.2, 0.8))


def test_component_betti_agrees_with_collapse_and_rank():
    rng = np.random.default_rng(7)
    small = 0
    for trial in range(300):
        n = 1 + trial % 3
        c = random_complex(rng, n)
        vec = betti_numbers(c)
        assert vec.values == rank_betti(c.cells, n)
        if c.total_cells() <= 120 and small < 40:
            small += 1
            assert list(vec.values) == naive_betti_q(c)
    assert small >= 20


def test_closure_layers_match_the_doubled_bitmap():
    """Cell counts, χ and the cell sets read from the layers equal those of
    the face-closed doubled bitmap, read by parity class."""
    rng = np.random.default_rng(8)
    for trial in range(80):
        n = 1 + trial % 4
        c = random_complex(rng, n)
        bitmap = closure_bitmap(c.top)
        counts = [0] * (n + 1)
        cells: dict = {}
        for parity, view in parity_views(bitmap):
            counts[sum(parity)] += int(np.count_nonzero(view))
            found = 2 * np.argwhere(view) + np.array(parity)
            if found.size:
                cells.setdefault(sum(parity), set()).update(map(tuple, found.tolist()))
        assert [c.cell_count(q) for q in range(n + 1)] == counts
        assert c.total_cells() == int(np.count_nonzero(bitmap)) == sum(counts)
        assert c.euler_characteristic() == sum((-1) ** q * k for q, k in enumerate(counts))
        assert c.cells == cells


def test_betti_numbers_below_four_dimensions_list_no_cell(monkeypatch):
    """For n ≤ 3 the answer comes from the top mask and its layers: no cell
    tuple, no collapse and no rank is asked for."""

    def refuse(*args):
        raise AssertionError("a cell list was built")

    monkeypatch.setattr(CubicalComplex, "cells", property(refuse))
    monkeypatch.setattr(cubical, "rank_betti", refuse)
    monkeypatch.setattr(cubical, "collapsed_cells", refuse)
    rng = np.random.default_rng(9)
    for trial in range(30):
        c = random_complex(rng, 1 + trial % 3)
        assert betti_numbers(c).euler == c.euler_characteristic()


def test_betti_numbers_peak_memory_is_below_the_doubled_bitmap():
    """On a 256 x 512-cell annulus the whole computation peaks below the
    513 x 1025 bytes of the doubled bitmap alone."""
    c = build_cubical(mask_oracle(annulus), [(-2, 2), (-4, 4)], Fraction(1, 64))
    assert c.grid_shape == (256, 512)
    tracemalloc.start()
    try:
        values = betti_numbers(c).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values == (1, 1, 0)
    assert peak < 513 * 1025


class _TorusOracle:
    """Points within [r_in, r_out] of the circle of radius 2 in the xy-plane."""

    def __init__(self, r_in: float, r_out: float) -> None:
        self.r_in, self.r_out = r_in, r_out

    def batch(self, points, radius=0.0):
        if radius:
            return unsettled(points)
        rho = np.hypot(points[:, 0], points[:, 1])
        dist2 = (rho - 2.0) ** 2 + points[:, 2] ** 2
        return ((self.r_in**2 <= dist2) & (dist2 <= self.r_out**2)).astype(np.int8)


TORUS_BOX = [(Fraction(-7, 2), Fraction(7, 2))] * 2 + [(Fraction(-3, 2), Fraction(3, 2))]


def test_solid_torus_has_one_loop():
    """n = 3 with b_1 > 0: b_1 comes from b_0 + b_2 − χ."""
    c = build_cubical(_TorusOracle(0.0, 1.0), TORUS_BOX, Fraction(1, 4))
    assert betti_numbers(c).values == (1, 1, 0, 0)
    assert rank_betti(c.cells, 3) == (1, 1, 0, 0)


def test_thickened_torus_surface():
    c = build_cubical(_TorusOracle(0.5, 1.25), TORUS_BOX, Fraction(1, 4))
    vec = betti_numbers(c)
    assert vec.values == (1, 2, 1, 0)
    assert vec.euler == 0
    assert rank_betti(c.cells, 3) == (1, 2, 1, 0)


def test_four_dimensional_complexes_use_ranks():
    tops = [(0, 0, 0, 0), (2, 0, 0, 0)]
    c = complex_from_tops(4, tops)
    assert betti_numbers(c).values == (2, 0, 0, 0, 0)
    shell = np.ones((3,) * 4, dtype=bool)
    shell[1, 1, 1, 1] = False  # a 3^4 block of cells around a hole: a 3-sphere
    c = CubicalComplex(shell)
    assert (c.ambient_dim, c.grid_shape) == (4, (3,) * 4)
    assert betti_numbers(c).values == (1, 0, 0, 1, 0)


def test_rank_path_refuses_large_complexes_before_listing_cells():
    """A full 20^4 box has 41^4 cells: refused before any cell tuple exists."""
    c = build_cubical(ALL, [(0, 20)] * 4, Fraction(1))
    assert c.total_cells() == 41**4 > MAX_RANK_CELLS
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(CubicalError, match="rank-path limit"):
            betti_numbers(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 2**20


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------


def test_always_inside_full_grid():
    c = build_cubical(ALL, [(0, 1), (0, 1)], Fraction(1, 4))
    assert (c.ambient_dim, c.grid_shape) == (2, (4, 4))
    vec = betti_numbers(c)
    assert vec.values == (1, 0, 0)
    assert c.cell_count(2) == 16


def test_always_outside_empty_complex():
    c = build_cubical(NONE, [(0, 1), (0, 1)], Fraction(1, 4))
    assert c.total_cells() == 0
    assert betti_numbers(c).values == (0, 0, 0)
    assert betti_numbers(c).euler == 0


def test_annulus_betti():
    c = build_cubical(mask_oracle(annulus), [(-3, 3), (-3, 3)], Fraction(1, 32))
    vec = betti_numbers(c)
    assert vec.values == (1, 1, 0)
    assert rank_betti(c.cells, 2) == (1, 1, 0)


def square_with_holes(m: int, holes: list[tuple[int, int, int]]) -> CubicalComplex:
    """An m × m-cell square at h = 1 without the open squares of side s at
    (x, y) listed in ``holes``."""

    def inside(p):
        keep = np.ones(len(p), dtype=bool)
        for x, y, s in holes:
            keep &= ~((x < p[:, 0]) & (p[:, 0] < x + s) & (y < p[:, 1]) & (p[:, 1] < y + s))
        return keep

    return build_cubical(mask_oracle(inside), [(0, m), (0, m)], Fraction(1))


def test_plane_b1_from_euler_matches_complement_count():
    """n = 2 takes b_1 from χ; Alexander duality stays its oracle."""
    holes = [(2, 2, 10), (20, 3, 1), (40, 5, 7), (5, 30, 3), (30, 30, 20), (55, 55, 6), (3, 56, 1)]
    c = square_with_holes(64, holes)
    assert betti_numbers(c).values == (1, len(holes), 0)
    outside = np.pad(~c.top, 1, constant_values=True)
    assert count_components(outside, full=False) - 1 == len(holes)
    small = square_with_holes(10, [(1, 1, 2), (5, 1, 1), (2, 5, 3)])
    assert betti_numbers(small).values == (1, 3, 0)
    assert rank_betti(small.cells, 2) == (1, 3, 0)


def test_undecided_counts_as_inside_and_is_tallied():
    oracle = codes_oracle(lambda p: np.where(p[:, 0] < 0.5, 1, 2))
    c = build_cubical(oracle, [(0, 1), (0, 1)], Fraction(1, 4))
    assert c.cell_count(2) == 16
    assert c.undecided_cells == 8


def test_batch_oracle_path():
    class Batched:
        def batch(self, points, radius=0.0):
            if radius:
                return unsettled(points)
            return (points[:, 0] <= 0.5).astype(np.int8)

    c = build_cubical(Batched(), [(0, 1)], Fraction(1, 8))
    assert c.cell_count(1) == 4  # left half only
    assert betti_numbers(c).values == (1, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_build_hands_the_oracle_row_major_centres(n, monkeypatch):
    """The oracle is asked once about the tile centres, at a radius r that
    covers, in exact arithmetic, every float cell centre of each tile (tiles
    of 4 cells per axis, clipped at the box); then once, at radius 0, about
    the centres of the cells of the tiles it answered 2 for, each once, in
    row-major order and bit-equal to float(lo_a + h/2 + i_a·h).  The tiles
    it settled enter the top mask with their code.  These grids are smaller
    than the tiling limit, so the limit is lifted for that part; with it in
    place, every centre is asked at radius 0 in one call."""
    monkeypatch.setattr(cubical, "_TILED_CELLS", 0)
    h = Fraction(1, 10)
    lows = [Fraction(-1, 3), Fraction(2, 7), Fraction(-5, 3), Fraction(1, 10)][:n]
    counts = [9, 6, 4, 2][:n]
    box = [(lo, lo + m * h) for lo, m in zip(lows, counts)]
    seen = []

    class Recording:
        def batch(self, points, radius=0.0):
            seen.append((np.array(points), radius))
            if radius:
                return (np.arange(len(points)) % 3).astype(np.int8)
            return np.ones(len(points), dtype=np.int8)

    c = build_cubical(Recording(), box, h)
    (tiles, radius), (asked, zero) = seen
    assert radius > 0 and zero == 0.0
    tile_counts = [math.ceil(m / 4) for m in counts]
    assert tiles.shape == (math.prod(tile_counts), n)
    tile_codes = (np.arange(len(tiles)) % 3).reshape(tile_counts)
    tile_index = {t: i for i, t in enumerate(itertools.product(*map(range, tile_counts)))}
    expected = []
    for cell in itertools.product(*(range(m) for m in counts)):
        tile = tuple(i // 4 for i in cell)
        centre = [float(lo + h / 2 + i * h) for lo, i in zip(lows, cell)]
        for x, t in zip(centre, tiles[tile_index[tile]].tolist()):
            assert abs(Fraction(x) - Fraction(t)) <= Fraction(radius)
        if tile_codes[tile] == 2:
            expected.append(centre)
        assert c.top[cell] == (tile_codes[tile] != 0)
    assert asked.tobytes() == np.array(expected).tobytes()
    assert len({tuple(row) for row in asked.tolist()}) == len(asked)

    monkeypatch.undo()
    seen.clear()
    build_cubical(Recording(), box, h)
    ((asked, radius),) = seen
    assert radius == 0.0 and len(asked) == math.prod(counts)


def test_build_validation_errors():
    with pytest.raises(CubicalError):
        build_cubical(ALL, [(0, 1)], Fraction(1, 3) * 2)  # no fit
    with pytest.raises(CubicalError):
        build_cubical(ALL, [(0, 1)] * 7, Fraction(1, 2))  # dim 7
    with pytest.raises(CubicalError):
        build_cubical(ALL, [(0, 1025)], Fraction(1))  # too many
    # codes outside 0..2, float or boolean codes, one code short, one per axis
    for codes in (
        lambda p: np.full(len(p), 3),
        lambda p: np.full(len(p), -1),
        lambda p: np.ones(len(p)),
        lambda p: np.ones(len(p), dtype=bool),
        lambda p: np.ones(len(p) - 1, dtype=np.int8),
        lambda p: np.ones(p.shape, dtype=np.int8),
    ):
        with pytest.raises(CubicalError, match="integer codes in 0..2"):
            build_cubical(codes_oracle(codes), [(0, 1), (0, 1)], Fraction(1, 2))


def test_total_grid_size_is_bounded_before_sampling():
    calls = []
    oracle = codes_oracle(lambda p: calls.append(p) or np.ones(len(p), dtype=np.int8))
    with pytest.raises(CubicalError, match="exceeds the limit"):
        build_cubical(oracle, [(0, 512)] * 4, Fraction(1))
    assert calls == []


def test_euler_matches_alternating_cell_count():
    oracle = mask_oracle(lambda p: (p[:, 0] * 7 + p[:, 1] * 13) % 3 < 1.5)
    c = build_cubical(oracle, [(0, 2), (0, 2)], Fraction(1, 8))
    vec = betti_numbers(c)
    assert vec.euler == c.euler_characteristic()
    assert sum((-1) ** i * v for i, v in enumerate(vec.values)) == vec.euler


def test_disjoint_union_additivity():
    def diamond(cx):
        return lambda p: np.abs(p[:, 0] - cx) + np.abs(p[:, 1] - 1) <= 0.7

    left, right = diamond(1), diamond(3)
    box = [(0, 4), (0, 2)]
    h = Fraction(1, 16)
    union = mask_oracle(lambda p: left(p) | right(p))
    bu = betti_numbers(build_cubical(union, box, h))
    bl = betti_numbers(build_cubical(mask_oracle(left), box, h))
    br = betti_numbers(build_cubical(mask_oracle(right), box, h))
    assert bu.values == tuple(a + b for a, b in zip(bl.values, br.values))


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


def test_stable_betti_annulus():
    result = stable_betti(
        lambda h: mask_oracle(annulus), [(-3, 3), (-3, 3)], Fraction(1, 32)
    )
    assert result.stable
    assert result.betti.values == (1, 1, 0)
    assert result.coarse.values == (1, 1, 0)


def test_stable_betti_full_box():
    result = stable_betti(lambda h: ALL, [(0, 1), (0, 1)], Fraction(1, 4))
    assert result.stable
    assert result.betti.values == (1, 0, 0)


def test_stable_betti_flags_thin_slab():
    """A slab thinner than the coarse grid is invisible at the coarse level
    and appears at the fine one: must be flagged unstable."""
    slab = mask_oracle(lambda p: (0.0 <= p[:, 1]) & (p[:, 1] <= 1.0 / 16.0))
    result = stable_betti(lambda h: slab, [(0, 1), (0, 1)], Fraction(1, 4))
    assert not result.stable
    assert result.coarse.values == (0, 0, 0)
    assert result.betti.values == (1, 0, 0)


def test_stable_betti_oracle_factory_receives_resolution():
    seen = []

    def factory(h):
        seen.append(h)
        return ALL

    result = stable_betti(factory, [(0, 1)], Fraction(1, 2))
    assert result.stable
    assert seen == [Fraction(1, 2), Fraction(1, 4)]


def test_stable_betti_keeps_coarse_undecided_cells():
    """Undecided cells met only on the coarse grid must survive the fine pass."""
    def factory(h):
        if h == Fraction(1, 4):
            return codes_oracle(lambda p: np.where(p[:, 0] < 0.5, 2, 1))
        return ALL

    result = stable_betti(factory, [(0, 1), (0, 1)], Fraction(1, 4))
    assert result.stable
    assert result.undecided_cells == 0
    assert result.coarse_undecided_cells == 8


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def test_betti_json_schema():
    vec = BettiVector((1, 2, 0), -1)
    assert vec.to_json() == {"betti": [1, 2, 0], "euler": -1}


def test_betti_vector_validation():
    with pytest.raises(CubicalError):
        BettiVector((1, 0), 5)
    with pytest.raises(CubicalError, match="negative"):
        BettiVector((1, -1), 2)
