import pickle
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from eqdec.errors import ArgumentError, PrecisionError, ResourceError
from eqdec.lattice import Rect
from eqdec.torus import AxisSquare, Bitmap, Disk, FreeVectorSystem, TorusPoint, sample_free_system
from eqdec.window import (
    _min_translation_distance,
    build_sparse_coloring,
    extract_window,
    greedy_sparse_net,
    torus_coords,
)


AREA = 0.15


def _shapes():
    disk = Disk(TorusPoint([0.5, 0.5]), float(np.sqrt(AREA / np.pi)))
    square = AxisSquare(TorusPoint([0.1, 0.55]), float(np.sqrt(AREA)))
    return disk, square


def test_extract_window_trivial_shapes():
    sys = sample_free_system(7, 2, 2, 4)
    R = Rect((-8, -8), (16, 16))
    full = Bitmap(resolution=4, bits=np.ones((4, 4), dtype=bool))
    empty = Bitmap(resolution=4, bits=np.zeros((4, 4), dtype=bool))
    win = extract_window(full, empty, sys, TorusPoint([0.3, 0.7]), R)
    assert win.a_bits.bits.all()
    assert not win.b_bits.bits.any()


def test_extract_window_density_equidistribution():
    sys = sample_free_system(7, 2, 2, 8)
    disk, square = _shapes()
    R = Rect((-128, -128), (256, 256))
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = TorusPoint(rng.random(2))
        win = extract_window(disk, square, sys, u, R)
        assert win.a_bits.bits.mean() == pytest.approx(AREA, abs=0.02)


def test_extract_window_deterministic_and_capped():
    sys = sample_free_system(7, 2, 2, 8)
    disk, square = _shapes()
    R = Rect((-16, -16), (32, 32))
    u = TorusPoint([0.123, 0.456])
    w1 = extract_window(disk, square, sys, u, R)
    w2 = extract_window(disk, square, sys, u, R)
    assert np.array_equal(w1.a_bits.bits, w2.a_bits.bits)
    with pytest.raises(ResourceError):
        extract_window(disk, square, sys, u, R, cell_cap=100)


def test_torus_coords_match_coset_point():
    from eqdec.torus import coset_point

    sys = sample_free_system(5, 2, 2, 4)
    R = Rect((-3, 2), (4, 5))
    u = TorusPoint([0.9, 0.1])
    coords = torus_coords(sys, u, R)
    for i in range(4):
        for j in range(5):
            n = (R.low[0] + i, R.low[1] + j)
            expect = coset_point(u, n, sys).coords
            assert np.allclose(coords[i, j], expect, atol=1e-12)


def test_sparse_coloring_properties():
    sys = sample_free_system(7, 2, 2, 8)
    col = build_sparse_coloring(sys, 4)
    assert 1.0 / col.n_grid < col.min_distance
    # sampled same-color window cells are farther apart than the radius
    R = Rect((-64, -64), (128, 128))
    coords = torus_coords(sys, TorusPoint([0.2, 0.8]), R)
    colors = col.color_of(coords)
    assert colors.min() >= 0 and colors.max() < col.n_grid**2
    rng = np.random.default_rng(1)
    flat = colors.reshape(-1)
    order = np.argsort(flat, kind="stable")
    sorted_colors = flat[order]
    same = 0
    for _ in range(100_000):
        i = rng.integers(0, len(order) - 1)
        if sorted_colors[i] == sorted_colors[i + 1]:
            c1 = np.unravel_index(order[i], (128, 128))
            c2 = np.unravel_index(order[i + 1], (128, 128))
            assert max(abs(a - b) for a, b in zip(c1, c2)) > 4
            same += 1
    assert same > 0


def test_sparse_coloring_precision_error():
    vecs = np.array([[0.5, 0.0], [0.0, 0.5]])
    sys = FreeVectorSystem(k=2, d=2, vectors=vecs, m_cap=4, rng_seed=0)
    with pytest.raises(PrecisionError):
        build_sparse_coloring(sys, 4)


def _min_translation_distance_materialised(sys, r):
    """Reference: the whole (2r+1)^d coefficient box built at once, zero
    vector dropped, in 2^18-row chunks."""
    ax = [np.arange(-r, r + 1)] * sys.d
    offs = np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1).reshape(-1, sys.d)
    offs = offs[np.any(offs != 0, axis=1)]
    best = np.inf
    for lo in range(0, len(offs), 1 << 18):
        v = offs[lo : lo + (1 << 18)].astype(np.float64) @ sys.vectors
        v -= np.floor(v)
        best = min(best, float(np.minimum(v, 1.0 - v).max(axis=1).min()))
    return best


def test_min_translation_distance_streams_the_reference_value():
    for seed in range(3):
        for d, radii in ((2, (1, 16, 48, 100)), (3, (1, 8, 20))):
            for k in (1, 2, 3):
                sys = sample_free_system(seed * 31 + k, k, d, 4)
                for r in radii:
                    got = _min_translation_distance(sys, r)
                    assert got == _min_translation_distance_materialised(sys, r)


def test_min_translation_distance_never_builds_the_box():
    # at d = 3, r = 64 the box of offsets alone is 129^3 x 3 int64, 51 MB
    sys = sample_free_system(3, 2, 3, 8)
    tracemalloc.start()
    try:
        _min_translation_distance(sys, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 129**3 * 3 * 8


def test_greedy_sparse_net_tiny_window():
    sys = sample_free_system(7, 2, 2, 8)
    disk, square = _shapes()
    win = extract_window(disk, square, sys, TorusPoint([0.1, 0.1]), Rect((0, 0), (5, 5)))
    col = build_sparse_coloring(sys, 7)
    net = greedy_sparse_net(win, col, 7)
    assert net.size() == 1


def test_greedy_sparse_net_sparse_and_maximal():
    sys = sample_free_system(7, 2, 2, 8)
    disk, square = _shapes()
    win = extract_window(disk, square, sys, TorusPoint([0.4, 0.9]), Rect((-32, -32), (64, 64)))
    col = build_sparse_coloring(sys, 7)
    net = greedy_sparse_net(win, col, 7)
    cells = net.cells()
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            assert np.abs(cells[i] - cells[j]).max() > 7
    # every window cell within distance 7 of the net
    from eqdec.lattice import dilate

    covered = dilate(net.bits, 7)
    assert covered.all()
    net2 = greedy_sparse_net(win, col, 7)
    assert np.array_equal(net.bits, net2.bits)
    with pytest.raises(ArgumentError):
        greedy_sparse_net(win, col, 9)


def _greedy_net_per_class(win, coloring, r):
    """The greedy net with one step per color class, skipped or not."""
    sides = win.window.sides
    colors = coloring.color_of(win.torus_coords()).reshape(-1)
    order = np.argsort(colors, kind="stable")
    covered = np.zeros(sides, dtype=bool)
    net = np.zeros(sides, dtype=bool)
    for color in np.unique(colors):
        cand = order[colors[order] == color]
        cand = cand[~covered.reshape(-1)[cand]]
        net.reshape(-1)[cand] = True
        for cell in zip(*np.unravel_index(cand, sides)):
            covered[tuple(slice(max(0, c - r), c + r + 1) for c in cell)] = True
    return net


def test_greedy_sparse_net_skips_covered_classes_like_the_per_class_loop():
    rng = np.random.default_rng(11)
    disk, square = _shapes()
    for trial in range(4):
        sys = sample_free_system(int(rng.integers(1 << 30)), 2, 2, 4)
        side = int(rng.integers(40, 90))
        u = TorusPoint(rng.random(2).tolist())
        win = extract_window(disk, square, sys, u, Rect((-side // 2, 0), (side, side + 7)))
        r = 24
        col = build_sparse_coloring(sys, r)
        net = greedy_sparse_net(win, col, r)
        classes = len(np.unique(col.color_of(win.torus_coords())))
        assert classes > 20 * net.size()  # most classes are skipped
        assert np.array_equal(net.bits, _greedy_net_per_class(win, col, r))


@pytest.mark.parametrize("pipeline", ["square", "baire"])
def test_pipelines_leave_the_window_unchanged(pipeline):
    from eqdec.baire import run_baire
    from eqdec.lebesgue import build_schedule, run_pipeline

    disk, square = _shapes()
    sys = sample_free_system(7, 2, 2, 8)
    win = extract_window(disk, square, sys, TorusPoint([0.3, 0.7]), Rect((-128, -128), (256, 256)))

    def snapshot():  # every field but the coordinate cache, by value
        return {f.name: pickle.dumps(getattr(win, f.name)) for f in fields(win) if f.name != "_coords"}

    before = snapshot()
    if pipeline == "square":
        run_pipeline(win, build_schedule(win, (8, 32), 1), 1)
    else:
        run_baire(win, (8, 24), seed=11, net_cap=6)
    assert snapshot() == before
