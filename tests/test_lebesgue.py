import dataclasses
import hashlib
import json

import numpy as np
import pytest

from eqdec import lattice, lebesgue, matching
from eqdec.cli import _setup
from eqdec.errors import ArgumentError
from eqdec.lattice import CellSet, Rect
from eqdec.lebesgue import (
    _cell_boxes,
    _refine_all,
    build_schedule,
    grid_domain,
    init_m0,
    integer_voronoi,
    prune_cross_cube,
    rematch_dirty_cubes,
    run_pipeline,
)
from eqdec.suites import _canonical_max_matching
from eqdec.torus import AxisSquare, Bitmap, Disk, TorusPoint, sample_free_system
from eqdec.window import CosetWindow, extract_window


def _shapes(area=0.15):
    disk = Disk(TorusPoint([0.5, 0.5]), float(np.sqrt(area / np.pi)))
    square = AxisSquare(TorusPoint([0.1, 0.55]), float(np.sqrt(area)))
    return disk, square


def _window(side=128, seed=7, u=(0.3, 0.7), m_cap=8):
    sys = sample_free_system(seed, 2, 2, m_cap)
    disk, square = _shapes()
    return extract_window(disk, square, sys, TorusPoint(list(u)), Rect((-side // 2,) * 2, (side,) * 2))


def test_integer_voronoi_single_seed():
    R = Rect((0, 0), (10, 10))
    S = CellSet.from_cells([(4, 4)], R)
    owner, seeds = integer_voronoi(S, R)
    assert (owner == 0).all()


def test_integer_voronoi_tie_cells_unowned():
    R = Rect((0, 0), (11, 11))
    S = CellSet.from_cells([(0, 0), (10, 0)], R)
    owner, seeds = integer_voronoi(S, R)
    assert (owner[5, :] == -1).all()  # first coordinate 5: equidistant, unowned
    assert (owner[:5, 0] == 0).all()
    assert (owner[6:, 0] == 1).all()


def test_integer_voronoi_matches_naive():
    rng = np.random.default_rng(3)
    R = Rect((-10, 5), (40, 40))
    for _ in range(20):
        count = int(rng.integers(2, 8))
        cells = set()
        while len(cells) < count:
            cells.add(tuple(rng.integers(0, 40, 2)))
        abs_cells = [(c[0] - 10, c[1] + 5) for c in cells]
        S = CellSet.from_cells(abs_cells, R)
        owner, seeds = integer_voronoi(S, R)
        for p in [(int(x), int(y)) for x in range(0, 40, 7) for y in range(0, 40, 7)]:
            cell = np.array([p[0] - 10, p[1] + 5])
            dists = [max(abs(cell[0] - s[0]), abs(cell[1] - s[1])) for s in seeds]
            best = min(dists)
            expect = dists.index(best) if dists.count(best) == 1 else -1
            assert owner[p] == expect


def test_grid_domain_single_seed_tiles_window():
    R = Rect((-32, -32), (64, 64))
    S = CellSet.from_cells([(0, 0)], R)
    owner, seeds = integer_voronoi(S, R)
    dom = grid_domain(S, 4, (owner, seeds), R)
    # seed-aligned 4-grid fits the 64-window exactly
    assert not (dom.cube_id < 0).any()
    assert len(dom.cube_lows) == 256
    dom8 = grid_domain(CellSet.from_cells([(1, 1)], R), 8, integer_voronoi(CellSet.from_cells([(1, 1)], R), R), R)
    # misaligned grid leaves a frame near the window edge
    unc = np.argwhere(dom8.cube_id < 0) + np.array(R.low)
    assert len(unc) > 0
    border = 8
    hi = np.array(R.high)
    lo = np.array(R.low)
    assert all(
        (c < lo + border).any() or (c >= hi - border).any() for c in unc
    )


def test_grid_domain_bisector_gap_and_density():
    R = Rect((0, 0), (64, 64))
    S = CellSet.from_cells([(10, 32), (34, 32)], R)
    vor = integer_voronoi(S, R)
    dom = grid_domain(S, 16, vor, R)
    covered = dom.cube_id >= 0
    assert (np.bincount(dom.cube_id[covered]) == 16**2).all()  # whole cubes
    assert (dom.owner[covered] == dom.cube_seed[dom.cube_id[covered]]).all()
    assert not covered.all()


def _grid_domain_reference(owner, seeds, n_cube, window):
    """Whole-window scan per seed: the cube tiling grid_domain must reproduce."""
    low = np.array(window.low)
    sides = np.array(window.sides)
    cube_id = np.full(window.sides, -1, dtype=np.int32)
    lows, seed_of = [], []
    for si, s in enumerate(seeds):
        start = (s - low) % n_cube
        count = (sides - start) // n_cube
        if np.any(count <= 0):
            continue
        region = tuple(slice(int(a), int(a + c * n_cube)) for a, c in zip(start, count))
        shape = []
        for c in count:
            shape.extend([int(c), n_cube])
        blocks = (owner[region] == si).reshape(shape)
        for ax in range(window.d - 1, -1, -1):
            blocks = blocks.all(axis=2 * ax + 1)
        for idx in np.argwhere(blocks):
            cube_lo = idx * n_cube + start
            cube_id[tuple(slice(int(c), int(c) + n_cube) for c in cube_lo)] = len(lows)
            lows.append(cube_lo + low)
            seed_of.append(si)
    cube_lows = np.array(lows, dtype=np.int64).reshape(-1, window.d)
    return cube_id, cube_lows, np.array(seed_of, dtype=np.int32)


def test_grid_domain_matches_whole_window_reference():
    rng = np.random.default_rng(11)
    ties = 0
    for case in range(160):
        d = 2 if case % 2 else 3
        sides = tuple(int(x) for x in rng.integers(1, 40 if d == 2 else 14, d))
        R = Rect(tuple(int(x) for x in rng.integers(-20, 20, d)), sides)
        count = int(rng.integers(1, min(12, R.volume()) + 1))
        rel = rng.choice(R.volume(), size=count, replace=False)
        cells = np.array(np.unravel_index(rel, sides)).T + np.array(R.low)
        S = CellSet.from_cells([tuple(int(x) for x in c) for c in cells], R)
        n_cube = int(rng.choice([1, 2, 4, 8]))
        every = np.argwhere(np.ones(sides, dtype=bool)) + np.array(R.low)
        dist = np.abs(every[:, None, :] - S.cells()[None, :, :]).max(axis=2)
        covering = int(dist.min(axis=1).max())
        for cover_radius in (None, covering + int(rng.integers(0, 3))):
            owner, seeds = integer_voronoi(S, R, cover_radius=cover_radius)
            ties += int((owner < 0).any())
            dom = grid_domain(S, n_cube, (owner, seeds), R)
            ref = _grid_domain_reference(owner, seeds, n_cube, R)
            for got, want in zip((dom.cube_id, dom.cube_lows, dom.cube_seed), ref):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
    assert ties > 50  # sup-norm ties (owner -1) are well represented


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cell_boxes_equal_scipy_find_objects(d):
    from scipy.ndimage import find_objects

    def check(owner, n):
        lo, hi = _cell_boxes(owner, n)
        assert lo.shape == hi.shape == (n, d)
        for label, box in enumerate(find_objects(owner + 1, max_label=n)):
            if box is None:  # an absent label: the empty box
                assert not lo[label].any() and not hi[label].any()
            else:
                assert lo[label].tolist() == [b.start for b in box]
                assert hi[label].tolist() == [b.stop for b in box]

    rng = np.random.default_rng(70 + d)
    check(np.full((5,) * d, -1, dtype=np.int32), 3)
    single = np.full((6,) * d, -1, dtype=np.int32)
    single[(0,) * d] = 0
    single[(5,) * d] = 2  # one-cell cells in opposite corners, label 1 absent
    check(single, 4)
    for _ in range(40):
        shape = tuple(int(s) for s in rng.integers(1, 60 // d + 1, size=d))
        n = int(rng.integers(1, 12))
        # labels drawn from -1..n+1, so some of 0..n-1 never occur
        owner = rng.integers(-1, n + 2, size=shape).astype(np.int32)
        owner[owner >= n] = -1
        check(owner, n)
        # blocky cells, as Voronoi cells are, with runs across line ends
        coarse = rng.integers(-1, n, size=tuple(-(-s // 4) for s in shape)).astype(np.int32)
        for ax in range(d):
            coarse = np.repeat(coarse, 4, axis=ax)
        check(np.ascontiguousarray(coarse[tuple(slice(0, s) for s in shape)]), n)


# SHA-256 of a_match + b_match bytes for `eqdec square --window 256 --ladder L
# --levels 1` at the default seed 7; a pure refactor must leave these unchanged.
GOLDEN_SQUARE = {
    (8, 32): "a1cd402033f2aad249bc78f54566fa5da93064da1c04143975ec010cd26b3d19",
    (2, 4, 8, 16): "fd8d012cd5f089b859651cee2faaedea5a86f8411f0dce44421563a5d9a290d7",
}


@pytest.mark.parametrize("ladder", list(GOLDEN_SQUARE))
def test_square_run_golden_hash(ladder):
    win, *_ = _setup({"seed": 7, "k": 2, "d": 2, "m_cap": 8, "window": 256})
    m = run_pipeline(win, build_schedule(win, ladder, 1), 1).matching
    digest = hashlib.sha256(m.a_match.tobytes() + m.b_match.tobytes()).hexdigest()
    assert digest == GOLDEN_SQUARE[ladder]


def test_square_three_level_golden_hash():
    # a second rematch and refine round, on a matching an earlier refine made:
    # `eqdec square --window 512 --ladder 4,16,64 --levels 2` at seed 7
    win, *_ = _setup({"seed": 7, "k": 2, "d": 2, "m_cap": 8, "window": 512})
    m = run_pipeline(win, build_schedule(win, (4, 16, 64), 2), 2).matching
    digest = hashlib.sha256(m.a_match.tobytes() + m.b_match.tobytes()).hexdigest()
    assert digest == "8b8c16b55b5f1a0e6498b0689349389796b2b90327cbddbefd6df1c3197be0ab"


def test_square_three_level_reports_digest():
    # the per-level counts, above all changed_prune / changed_rematch /
    # changed_refine, of the three-level golden run; level 1 reads 492 dirty
    # cubes of 1,024 and 4,184 / 18,447 / 9,284 changed A-cells
    win, *_ = _setup({"seed": 7, "k": 2, "d": 2, "m_cap": 8, "window": 512})
    res = run_pipeline(win, build_schedule(win, (4, 16, 64), 2), 2)
    blob = json.dumps([dataclasses.asdict(r) for r in res.reports], sort_keys=True)
    digest = hashlib.sha256(blob.encode()).hexdigest()
    assert digest == "38ddde8952ad67498d851003f0fdeef5c0329cba4b617b1a42d65088afbff0bc"


@pytest.mark.parametrize("ladder", list(GOLDEN_SQUARE))
def test_square_pipeline_edits_one_matching(monkeypatch, ladder):
    # every level edits the level-0 matching in place: no per-level copies
    win, *_ = _setup({"seed": 7, "k": 2, "d": 2, "m_cap": 8, "window": 256})
    schedule = build_schedule(win, ladder, 1)
    copies = []
    copy = matching.Matching.copy

    def counting(self):
        copies.append(1)
        return copy(self)

    monkeypatch.setattr(matching.Matching, "copy", counting)
    run_pipeline(win, schedule, 1)
    assert copies == []


@pytest.mark.parametrize("ladder", list(GOLDEN_SQUARE))
def test_square_pipeline_never_runs_the_ladder(monkeypatch, ladder):
    # ladder_max_matching (nearest-first greedy), hierarchy_augment and its
    # _forest_sweep may pick any maximum matching only because no square run
    # reaches them
    def forbidden(*args, **kwargs):
        raise AssertionError("the square pipeline called a Baire-only matcher")

    for mod in (matching, lebesgue):
        for name in ("ladder_max_matching", "hierarchy_augment", "_forest_sweep"):
            monkeypatch.setattr(mod, name, forbidden, raising=False)
    win, *_ = _setup({"seed": 7, "k": 2, "d": 2, "m_cap": 8, "window": 256})
    run_pipeline(win, build_schedule(win, ladder, 1), 1)


@pytest.mark.parametrize("ladder", list(GOLDEN_SQUARE))
def test_square_pipeline_builds_no_per_cube_rects(monkeypatch, ladder):
    # the refine and rematch passes work on box arrays; a Rect per cube or per
    # tree node (1,409 and 7,175 of them on these runs before) must not return
    win, *_ = _setup({"seed": 7, "k": 2, "d": 2, "m_cap": 8, "window": 256})
    schedule = build_schedule(win, ladder, 1)
    built = []
    post_init = lattice.Rect.__post_init__

    def counting(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(lattice.Rect, "__post_init__", counting)
    run_pipeline(win, schedule, 1)
    assert len(built) <= 8


def test_init_m0_edges_inside_cubes_and_oracle_size():
    win = _window(64)
    sched = build_schedule(win, (8, 32), levels=0)
    vor = integer_voronoi(sched.seeds[0], win.window, cover_radius=None)
    dom = grid_domain(sched.seeds[0], 8, vor, win.window)
    m = init_m0(win, dom)
    m.validate(win.a_bits.bits, win.b_bits.bits)
    a_idx, _, b_idx = m.edges()
    ca = dom.cube_id[tuple(a_idx.T)]
    assert np.all(ca == dom.cube_id[tuple(b_idx.T)]) and np.all(ca >= 0)
    # per-cube size equals the canonical per-rect matching
    for ci in (0, len(dom.cube_lows) // 2, len(dom.cube_lows) - 1):
        rect = Rect(tuple(dom.cube_lows[ci].tolist()), (dom.n_cube,) * 2)
        standalone = _canonical_max_matching(win, rect)
        sl = rect.slices_in(win.window)
        assert (m.a_match[sl] >= 0).sum() == standalone.size()
        assert np.array_equal(m.a_match[sl], standalone.a_match)


def test_prune_cross_cube():
    win = _window(64)
    sched = build_schedule(win, (8, 32), levels=1)
    vor0 = integer_voronoi(sched.seeds[0], win.window)
    dom0 = grid_domain(sched.seeds[0], 8, vor0, win.window, 0)
    m = init_m0(win, dom0)
    # prune against the same domain leaves everything in place
    same = m.copy()
    assert prune_cross_cube(same, dom0) == 0
    assert same.size() == m.size()
    vor1 = integer_voronoi(sched.seeds[1], win.window)
    dom1 = grid_domain(sched.seeds[1], 32, vor1, win.window, 1)
    pruned = m.copy()
    dropped = prune_cross_cube(pruned, dom1)
    pruned.validate(win.a_bits.bits, win.b_bits.bits)
    assert pruned.size() <= m.size()
    # each dropped edge changes exactly one A-cell
    assert dropped == m.size() - pruned.size() == int((pruned.a_match != m.a_match).sum())
    a_idx, _, b_idx = pruned.edges()
    ca = dom1.cube_id[tuple(a_idx.T)]
    assert np.all(ca == dom1.cube_id[tuple(b_idx.T)]) and np.all(ca >= 0)


def test_rematch_and_refine_reach_per_cube_maximum():
    # ladder 4,16,32: level 0 has several Voronoi cells, so both the rematch
    # path (dirty cubes) and the refine path (clean cubes) run
    win = _window(128)
    sched = build_schedule(win, (4, 16, 32), levels=1)
    vor0 = integer_voronoi(sched.seeds[0], win.window)
    dom0 = grid_domain(sched.seeds[0], 4, vor0, win.window, 0)
    m = init_m0(win, dom0)
    vor1 = integer_voronoi(sched.seeds[1], win.window)
    dom1 = grid_domain(sched.seeds[1], 16, vor1, win.window, 1)
    prune_cross_cube(m, dom1)
    pruned = m.copy()
    dirty = rematch_dirty_cubes(m, dom1, dom0, win)
    m.validate(win.a_bits.bits, win.b_bits.bits)
    assert (m.a_match != pruned.a_match).any()
    assert 0 < len(dirty) < len(dom1.cube_lows)
    _refine_all(m, dom1, dom0, win, dirty)
    m.validate(win.a_bits.bits, win.b_bits.bits)
    for ci in range(len(dom1.cube_lows)):
        rect = Rect(tuple(dom1.cube_lows[ci].tolist()), (dom1.n_cube,) * 2)
        sl = rect.slices_in(win.window)
        a_bits, b_bits = win.a_bits.bits[sl], win.b_bits.bits[sl]
        am, bm = m.a_match[sl], m.b_match[sl]
        bfs = matching._layered_bfs(a_bits, b_bits, am, bm, m.offsets, m.m_cap, max(rect.sides))
        assert bfs.ends is None


def test_refine_single_flip_instance():
    # two adjacent basic rectangles, one unmatched A left, one unmatched B right
    m_cap = 2
    sys = sample_free_system(0, 2, 2, m_cap)
    R = Rect((0, 0), (8, 8))
    a = np.zeros((8, 8), dtype=bool)
    b = np.zeros((8, 8), dtype=bool)
    a[1, 3] = True
    b[1, 5] = True
    win = CosetWindow(TorusPoint([0, 0]), sys, R, CellSet(R, a), CellSet(R, b))
    S = CellSet.from_cells([(0, 0)], R)
    vor0 = integer_voronoi(S, R)
    dom0 = grid_domain(S, 4, vor0, R, 0)
    m = init_m0(win, dom0)
    assert m.size() == 0  # the pair straddles the 4-grid
    dom1 = grid_domain(S, 8, integer_voronoi(S, R), R, 1)
    prune_cross_cube(m, dom1)
    dirty = rematch_dirty_cubes(m, dom1, dom0, win)
    assert len(dirty) == 0
    _refine_all(m, dom1, dom0, win, dirty)
    a_idx, _, b_idx = m.edges()
    assert a_idx.tolist() == [[1, 3]] and b_idx.tolist() == [[1, 5]]


def test_refine_without_clean_cubes_changes_nothing():
    win = _window(128)
    sched = build_schedule(win, (4, 16, 32), levels=1)
    dom0 = grid_domain(sched.seeds[0], 4, integer_voronoi(sched.seeds[0], win.window), win.window, 0)
    dom1 = grid_domain(sched.seeds[1], 16, integer_voronoi(sched.seeds[1], win.window), win.window, 1)
    m = init_m0(win, dom0)
    prune_cross_cube(m, dom1)
    rematch_dirty_cubes(m, dom1, dom0, win)
    before = m.copy()
    _refine_all(m, dom1, dom0, win, np.arange(len(dom1.cube_lows)))  # all dirty
    assert np.array_equal(m.a_match, before.a_match)
    assert np.array_equal(m.b_match, before.b_match)


def test_short_path_check_sees_a_dropped_edge():
    win = _window(128)
    sched = build_schedule(win, (4, 16), levels=0)
    dom = grid_domain(sched.seeds[0], 4, integer_voronoi(sched.seeds[0], win.window), win.window, 0)
    m = init_m0(win, dom)  # maximum inside every cube
    assert lebesgue._no_short_augmenting_path(win, dom, m)
    a_idx, _, b_idx = m.edges()
    a, b = a_idx[len(a_idx) // 2], b_idx[len(a_idx) // 2]
    m.a_match[tuple(a)] = m.b_match[tuple(b)] = -1
    before = m.copy()
    assert not lebesgue._no_short_augmenting_path(win, dom, m)
    assert np.array_equal(m.a_match, before.a_match)
    assert np.array_equal(m.b_match, before.b_match)


def test_run_pipeline_identity_instance():
    sys = sample_free_system(7, 2, 2, 8)
    rng = np.random.default_rng(1)
    bits = rng.random((16, 16)) < 0.4
    shape = Bitmap(resolution=16, bits=bits)
    R = Rect((-32, -32), (64, 64))
    win = extract_window(shape, shape, sys, TorusPoint([0.25, 0.75]), R)
    sched = build_schedule(win, (8,), levels=0)
    res = run_pipeline(win, sched, 0)
    rep = res.reports[0]
    assert rep.unmatched_fraction == 0.0
    assert rep.two_sided_cubes == 0
    # identical parts saturate every covered cube
    csl = win.core_rect(res.margin_core).slices_in(win.window)
    assert ((res.matching.a_match[csl] >= 0) == win.a_bits.bits[csl]).all()


def test_run_pipeline_levels_zero_bound():
    win = _window(64)
    sched = build_schedule(win, (8, 32), levels=0)
    res = run_pipeline(win, sched, 0)
    assert res.reports[0].unmatched_exceeds_discrepancy == 0


def test_run_pipeline_decreasing_unmatched_small():
    win = _window(448)
    a, b = win.a_bits, win.b_bits
    bits = a.bits.copy(), b.bits.copy()
    sched = build_schedule(win, (4, 16, 64), levels=2)
    res = run_pipeline(win, sched, 2, check_invariants=True)
    fr = [r.unmatched_fraction for r in res.reports]
    assert fr[0] > fr[1] > fr[2]
    # the window is input only
    assert win.a_bits is a and win.b_bits is b
    assert np.array_equal(a.bits, bits[0]) and np.array_equal(b.bits, bits[1])


def test_build_schedule_validation():
    win = _window(64)
    with pytest.raises(ArgumentError):
        build_schedule(win, (8, 24), levels=1)  # not a power of two
    with pytest.raises(ArgumentError):
        build_schedule(win, (32, 8), levels=1)  # not increasing
    with pytest.raises(ArgumentError):
        build_schedule(win, (8, 128), levels=1)  # top cube exceeds window
    with pytest.raises(ArgumentError):
        build_schedule(win, (8, 32), levels=-1)
    sched = build_schedule(win, (4, 8, 32, 128), levels=1)
    assert sched.seed_radii == (32, None)
    assert sched.summability["partials"]
