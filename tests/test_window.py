import pickle
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from eqdec.errors import ArgumentError, PrecisionError, ResourceError
from eqdec.lattice import Rect
from eqdec.torus import (
    AxisSquare,
    Bitmap,
    Disk,
    FreeVectorSystem,
    Polygon,
    TorusPoint,
    sample_free_system,
)
from eqdec.window import (
    SLAB_CELLS,
    _digit_rows,
    _min_translation_distance,
    build_sparse_coloring,
    coords_at,
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


def _all_shapes():
    disk, square = _shapes()
    polygon = Polygon(tuple(TorusPoint(v) for v in ([0.1, 0.2], [0.7, 0.3], [0.4, 0.9])))
    bits = np.random.default_rng(3).random((16, 16)) < 0.4
    return [disk, square, polygon, Bitmap(resolution=16, bits=bits)]


@pytest.mark.parametrize("d", [2, 3])
def test_coords_at_equals_torus_coords_bitwise(d):
    rng = np.random.default_rng(d)
    for trial in range(4):
        sys = sample_free_system(int(rng.integers(1 << 30)), 2, d, 4)
        sides = tuple(int(s) for s in rng.integers(3, 40 if d == 2 else 12, d))
        low = tuple(int(x) for x in rng.integers(-5000, 50, d))
        disk, square = _shapes()
        win = extract_window(disk, square, sys, TorusPoint(rng.random(2)), Rect(low, sides))
        cells = np.stack([rng.integers(0, s, 500) for s in sides], axis=1)
        want = torus_coords(sys, win.base, win.window)[tuple(cells.T)]
        assert np.array_equal(coords_at(win, cells), want)


@pytest.mark.parametrize(
    "low, sides",
    [
        ((-40, 7), (37, 1000)),  # 16-row slabs; 37 rows are not a multiple of 16
        ((-1, -30000), (3, 20000)),  # one row is wider than a slab
        ((-4, -70, 3), (9, 40, 50)),  # d = 3, 8 planes to a slab
        ((2, -75, -65), (3, 150, 130)),  # d = 3, one plane is wider than a slab
    ],
)
def test_extract_window_slabs_equal_the_whole_window_reference(low, sides):
    R = Rect(low, sides)
    sys = sample_free_system(13, 2, len(sides), 4)
    u = TorusPoint([0.77, 0.31])
    flat = torus_coords(sys, u, R).reshape(-1, 2)
    shapes = _all_shapes()
    for shape_a, shape_b in zip(shapes, shapes[1:] + shapes[:1]):
        win = extract_window(shape_a, shape_b, sys, u, R)
        assert np.array_equal(win.a_bits.bits, shape_a.contains_batch(flat).reshape(sides))
        assert np.array_equal(win.b_bits.bits, shape_b.contains_batch(flat).reshape(sides))


def _traced_peak(fn, *args):
    """Peak bytes that numpy and Python allocate while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# one slab's (SLAB_CELLS, k = 2) float64 coordinates
SLAB_BYTES = SLAB_CELLS * 2 * 8


def test_extract_window_keeps_no_window_sized_coordinates():
    disk, square = _shapes()
    sys = sample_free_system(7, 2, 2, 8)
    R = Rect((-256, -256), (512, 512))
    peak = _traced_peak(extract_window, disk, square, sys, TorusPoint([0.3, 0.7]), R)
    # the two bit grids plus a few slab buffers, not 8k bytes per cell
    assert peak < 2 * R.volume() + 6 * SLAB_BYTES


def test_greedy_sparse_net_keeps_no_window_sized_coordinates():
    disk, square = _shapes()
    sys = sample_free_system(7, 2, 2, 8)
    R = Rect((-256, -256), (512, 512))
    win = extract_window(disk, square, sys, TorusPoint([0.3, 0.7]), R)
    col = build_sparse_coloring(sys, 32)
    peak = _traced_peak(greedy_sparse_net, win, col, 32)
    # int64 colours and their order, the net and covered grids, a few slabs
    assert peak < 16 * R.volume() + 2 * R.volume() + 4 * SLAB_BYTES


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
    colors = coloring.color_of(torus_coords(win.sys, win.base, win.window)).reshape(-1)
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
        classes = len(np.unique(col.color_of(torus_coords(win.sys, win.base, win.window))))
        assert classes > 20 * net.size()  # most classes are skipped
        assert np.array_equal(net.bits, _greedy_net_per_class(win, col, r))


@pytest.mark.parametrize("pipeline", ["square", "baire"])
def test_pipelines_leave_the_window_unchanged(pipeline):
    from eqdec.baire import run_baire
    from eqdec.lebesgue import build_schedule, run_pipeline

    disk, square = _shapes()
    sys = sample_free_system(7, 2, 2, 8)
    win = extract_window(disk, square, sys, TorusPoint([0.3, 0.7]), Rect((-128, -128), (256, 256)))

    def snapshot():  # every field, by value
        return {f.name: pickle.dumps(getattr(win, f.name)) for f in fields(win)}

    before = snapshot()
    if pipeline == "square":
        run_pipeline(win, build_schedule(win, (8, 32), 1), 1)
    else:
        run_baire(win, (8, 24), seed=11, net_cap=6)
    assert snapshot() == before


@pytest.mark.parametrize("top", [1, 7, 1 << 16, 1 << 20, 1 << 34, 1 << 62])
def test_digit_rows_sort_like_the_colours(top):
    keys = np.random.default_rng(top).integers(0, top, 5000, dtype=np.int64)
    keys[::7] = keys[0]  # ties across the whole range
    rows = _digit_rows(keys, top)
    assert len(rows) == max(1, -(-(top - 1).bit_length() // 16))
    assert np.array_equal(np.lexsort(rows), np.argsort(keys, kind="stable"))


def test_digit_rows_of_no_colours():
    assert np.lexsort(_digit_rows(np.zeros(0, dtype=np.int64), 1 << 40)).shape == (0,)


@pytest.mark.parametrize("r, side", [(7, 64), (128, 320)])
def test_greedy_sparse_net_equals_cell_by_cell_greedy(r, side):
    # r = 128 takes 706^2 colours, two 16-bit digits
    sys = sample_free_system(7, 2, 2, 8)
    disk, square = _shapes()
    win = extract_window(disk, square, sys, TorusPoint([0.4, 0.9]), Rect((0, 0), (side, side)))
    col = build_sparse_coloring(sys, r)
    colors = col.color_of(torus_coords(sys, win.base, win.window)).ravel()
    net = np.zeros((side, side), dtype=bool)
    covered = np.zeros_like(net)
    for i, j in zip(*np.unravel_index(np.argsort(colors, kind="stable"), net.shape)):
        if not covered[i, j]:
            net[i, j] = True
            covered[max(0, i - r) : i + r + 1, max(0, j - r) : j + r + 1] = True
    assert np.array_equal(greedy_sparse_net(win, col, r).bits, net)
