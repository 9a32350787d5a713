import numpy as np
import pytest

from eqdec.errors import ArgumentError
from eqdec.lattice import (
    CellSet,
    Rect,
    dilate,
    internal_boundary,
    isoperimetry_check,
    perimeter,
    rect_tree_boxes,
)


def brute_perimeter(cells, d):
    cells = {tuple(c) for c in cells}
    count = 0
    for c in cells:
        for ax in range(d):
            for sign in (1, -1):
                n = list(c)
                n[ax] += sign
                if tuple(n) not in cells:
                    count += 1
    return count


def test_perimeter_examples():
    single = CellSet.from_cells([(0, 0)])
    assert perimeter(single) == 4
    rect23 = CellSet(Rect((0, 0), (2, 3)), np.ones((2, 3), dtype=bool))
    assert perimeter(rect23) == 10
    tromino = CellSet.from_cells([(0, 0), (1, 0), (1, 1)])
    assert perimeter(tromino) == 8
    assert perimeter(tromino) == brute_perimeter(tromino.cells(), 2)


def test_boundary_pairs_match_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(30):
        bits = rng.random((6, 6)) < 0.4
        if not bits.any():
            continue
        X = CellSet(Rect((-2, 5), (6, 6)), bits)
        assert perimeter(X) == brute_perimeter(X.cells(), 2)


def test_internal_boundary_examples():
    R = Rect((0, 0), (5, 5))
    full = CellSet(R, np.ones((5, 5), dtype=bool))
    assert internal_boundary(full, R) == 0
    center = CellSet.from_cells([(2, 2)], R)
    assert internal_boundary(center, R) == 4
    corner = CellSet.from_cells([(0, 0)], R)
    assert internal_boundary(corner, R) == 2
    outside = CellSet.from_cells([(7, 7)])
    with pytest.raises(ArgumentError):
        internal_boundary(outside, R)


def test_isoperimetry_equality_cases():
    p, bound, ok = isoperimetry_check(CellSet.from_cells([(0, 0)]))
    assert (p, bound, ok) == (4, 4.0, True)
    square = CellSet(Rect((0, 0), (2, 2)), np.ones((2, 2), dtype=bool))
    p, bound, ok = isoperimetry_check(square)
    assert p == 8 and bound == pytest.approx(8.0) and ok


def test_isoperimetry_exhaustive_3x3():
    rect = Rect((0, 0), (3, 3))
    for mask in range(1, 1 << 9):
        bits = np.array([(mask >> i) & 1 for i in range(9)], dtype=bool).reshape(3, 3)
        _, _, ok = isoperimetry_check(CellSet(rect, bits))
        assert ok


def test_isoperimetry_empty_raises():
    with pytest.raises(ArgumentError):
        isoperimetry_check(CellSet.empty(Rect((0, 0), (3, 3))))


def _tree_cases(rng, count, spread):
    """Random one-cube trees: d in 1..3, n_prev 2..8, height 1..3."""
    for _ in range(count):
        d = int(rng.integers(1, 4))
        n_prev = 2 ** int(rng.integers(1, 4))
        h = int(rng.integers(1, 4))
        low = rng.integers(-spread, spread, (1, d))
        origin = rng.integers(-spread, spread, (1, d))
        yield d, n_prev, h, n_prev << h, low, origin


def test_rect_tree_aligned_grid():
    for level in range(3):
        lows, sides = rect_tree_boxes([(0, 0)], [(0, 0)], 16, 4, level)
        assert len(lows) == 4**level
        assert (sides == 16 >> level).all()
    assert (sides.prod(axis=1)).sum() == 256


def test_rect_tree_merge_example():
    lows, sides = rect_tree_boxes([(0, 0)], [(1, 1)], 8, 2, 2)
    # basic intervals along each axis, spatial order: the tie keeps the
    # forward orientation and merges the trailing partial interval
    assert tuple(sides[::4, 0]) == (1, 2, 2, 3)
    assert tuple(sides[:4, 1]) == (1, 2, 2, 3)
    assert sorted(set(sides.ravel().tolist())) == [1, 2, 3]


def test_rect_tree_reversed_orientation_example():
    # origin 1 leaves a leading partial interval of 1 and a trailing one of 3:
    # the leading one is merged and the logical index runs from the high end
    for level, spans in ((1, [(9, 7), (0, 9)]), (2, [(13, 3), (9, 4), (5, 4), (0, 5)])):
        lows, sides = rect_tree_boxes([(0,)], [(1,)], 16, 4, level)
        assert list(zip(lows[:, 0].tolist(), sides[:, 0].tolist())) == spans
    # row-major in the logical index: the reversed axis 0 varies slowest
    lows, sides = rect_tree_boxes([(0, 0)], [(1, 0)], 16, 4, 1)
    assert lows.tolist() == [[9, 0], [9, 8], [0, 0], [0, 8]]
    assert sides.tolist() == [[7, 8], [7, 8], [9, 8], [9, 8]]


def test_rect_tree_side_bounds_random_offsets():
    rng = np.random.default_rng(17)
    for d, n_prev, h, side, low, origin in _tree_cases(rng, 600, 40):
        lows, sides = rect_tree_boxes(low, origin, side, n_prev, h)
        # the basic boxes tile the cube exactly once
        cover = np.zeros((side,) * d, dtype=int)
        for lo, si in zip(lows - low, sides):
            cover[tuple(slice(a, a + s) for a, s in zip(lo, si))] += 1
        assert (cover == 1).all()
        for level in range(h + 1):
            lows, sides = rect_tree_boxes(low, origin, side, n_prev, level)
            assert len(lows) == 2 ** (level * d)
            width = (1 << (h - level)) * n_prev
            assert (sides >= width - n_prev // 2).all() and (sides <= width + n_prev // 2).all()
            assert (sides.max(axis=1) <= 3 * sides.min(axis=1)).all()


def test_rect_tree_basics_follow_inherited_grid():
    rng = np.random.default_rng(23)
    for d, n_prev, h, side, low, origin in _tree_cases(rng, 300, 30):
        lows, sides = rect_tree_boxes(low, origin, side, n_prev, h)
        for edge in (lows, lows + sides):
            inner = (edge != low) & (edge != low + side)
            assert ((edge - origin)[inner] % n_prev == 0).all()


def test_rect_tree_validation():
    with pytest.raises(ArgumentError):
        rect_tree_boxes([(0, 0)], [(0, 0)], 12, 4, 1)  # cube side not a power of two
    with pytest.raises(ArgumentError):
        rect_tree_boxes([(0, 0)], [(0, 0)], 16, 3, 1)  # grid not a power of two
    with pytest.raises(ArgumentError):
        rect_tree_boxes([(0, 0)], [(0, 0)], 8, 8, 0)  # no finer grid
    with pytest.raises(ArgumentError):
        rect_tree_boxes([(0, 0)], [(0, 0)], 16, 4, 3)  # below the basic level
    with pytest.raises(ArgumentError):
        rect_tree_boxes([(0, 0)], [(0, 0, 0)], 16, 4, 1)  # origin of another dimension


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dilate_equals_scipy_maximum_filter(d):
    from scipy.ndimage import maximum_filter

    rng = np.random.default_rng(60 + d)
    narrow = 0
    for m in range(10):
        for case in range(8):
            # sides from 1 to past 2m + 1, so some arrays are narrower than a window
            shape = tuple(int(s) for s in rng.integers(1, min(2 * m + 6, 60 // d), size=d))
            if case == 0:
                bits = np.zeros(shape, dtype=bool)
            elif case == 1:
                bits = np.ones(shape, dtype=bool)
            else:
                bits = rng.random(shape) < rng.choice([0.02, 0.1, 0.4])
                corner = tuple(int(rng.integers(2)) * (s - 1) for s in shape)
                bits[corner] = True  # a true cell on the border
            want = maximum_filter(bits.astype(np.uint8), size=2 * m + 1, mode="constant") > 0
            got = dilate(bits, m)
            assert got.dtype == bool and np.array_equal(got, want), (shape, m, case)
            narrow += min(shape) < 2 * m + 1
    assert narrow > 0
