import numpy as np
import pytest

from eqdec.errors import ArgumentError
from eqdec.lattice import (
    CellSet,
    Rect,
    build_rect_tree,
    internal_boundary,
    isoperimetry_check,
    perimeter,
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


def test_rect_tree_aligned_grid():
    tree = build_rect_tree(Rect((0, 0), (16, 16)), (0, 0), 4)
    assert tree.h == 2
    assert all(not n.special for n in tree.nodes)
    for node in tree.nodes:
        assert all(s == 16 >> node.level for s in node.rect.sides)
    basics = tree.basic_rects()
    assert sum(b.volume() for b in basics) == 256


def test_rect_tree_merge_example():
    tree = build_rect_tree(Rect((0, 0), (8, 8)), (1, 1), 2)
    assert tree.axes[0].lengths == (1, 2, 2, 3)
    assert tree.axes[1].lengths == (1, 2, 2, 3)
    sides = sorted({s for n in tree.level_nodes(tree.h) for s in n.rect.sides})
    assert sides == [1, 2, 3]


def test_rect_tree_side_bounds_random_offsets():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        h = int(rng.integers(1, 4))
        n_prev = 2 ** int(rng.integers(1, 4))
        side = n_prev << h
        low = tuple(int(x) for x in rng.integers(-40, 40, 2))
        origin = tuple(int(x) for x in rng.integers(-40, 40, 2))
        tree = build_rect_tree(Rect(low, (side, side)), origin, n_prev)
        assert sum(r.volume() for r in tree.basic_rects()) == side * side
        for node in tree.nodes:
            lo = (1 << (tree.h - node.level)) * n_prev - n_prev // 2
            hi = (1 << (tree.h - node.level)) * n_prev + n_prev // 2
            for s in node.rect.sides:
                assert lo <= s <= hi
            assert node.rect.balance() <= 3


def test_rect_tree_basics_follow_inherited_grid():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n_prev = 2 ** int(rng.integers(1, 4))
        h = int(rng.integers(1, 4))
        side = n_prev << h
        low = tuple(int(x) for x in rng.integers(-30, 30, 2))
        origin = tuple(int(x) for x in rng.integers(-30, 30, 2))
        tree = build_rect_tree(Rect(low, (side, side)), origin, n_prev)
        for ax in range(2):
            pos = low[ax]
            for L in tree.axes[ax].lengths[:-1]:
                pos += L
                assert (pos - origin[ax]) % n_prev == 0


def test_rect_tree_validation():
    with pytest.raises(ArgumentError):
        build_rect_tree(Rect((0, 0), (12, 12)), (0, 0), 4)
    with pytest.raises(ArgumentError):
        build_rect_tree(Rect((0, 0), (8, 16)), (0, 0), 4)
