import collections
import itertools

import numpy as np
import pytest

from eqdec.errors import ArgumentError
from eqdec.lattice import CellSet, Rect, dilate
from eqdec import matching, suites
from eqdec.matching import (
    Matching,
    _a_to_b,
    _augment_regions,
    _forest_sweep,
    _layered_bfs,
    _offsets_nearest_first,
    _window_min,
    augment_phase,
    augment_to_max,
    cover_side,
    greedy_offset_pass,
    hall_deficiency,
    hierarchy_augment,
    ladder_max_matching,
)
from eqdec.suites import (
    _bits_window,
    _canonical_max_matching,
    _random_matching,
    suite_hall,
    suite_short_augmenting,
)
from eqdec.torus import offsets_row_major


def scipy_max_matching_size(a_bits, b_bits, m_cap):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    acells = np.argwhere(a_bits)
    bcells = np.argwhere(b_bits)
    if len(acells) == 0 or len(bcells) == 0:
        return 0
    bidx = np.full(a_bits.shape, -1)
    bidx[tuple(bcells.T)] = np.arange(len(bcells))
    rows, cols = [], []
    for off in offsets_row_major(m_cap, a_bits.ndim):
        nb = acells + off
        inb = np.flatnonzero((nb >= 0).all(axis=1) & (nb < np.array(a_bits.shape)).all(axis=1))
        col = bidx[tuple(nb[inb].T)]
        rows.append(inb[col >= 0])
        cols.append(col[col >= 0])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    if not len(rows):
        return 0
    mat = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(acells), len(bcells)))
    return int((maximum_bipartite_matching(mat, perm_type="column") >= 0).sum())


def test_canonical_matching_trivial():
    R = Rect((0, 0), (4, 4))
    empty = np.zeros((4, 4), dtype=bool)
    win = _bits_window(CellSet(R, empty), CellSet(R, empty), 2)
    assert _canonical_max_matching(win, R).size() == 0

    one = empty.copy()
    one[1, 1] = True
    win = _bits_window(CellSet(R, one), CellSet(R, one.copy()), 2)
    m = _canonical_max_matching(win, R)
    a_idx, _, b_idx = m.edges()
    assert a_idx.tolist() == b_idx.tolist() == [[1, 1]]


def test_canonical_matching_vs_max_flow_oracle():
    rng = np.random.default_rng(1)
    R = Rect((0, 0), (12, 12))
    for _ in range(1000):
        a = rng.random((12, 12)) < rng.uniform(0.1, 0.6)
        b = rng.random((12, 12)) < rng.uniform(0.1, 0.6)
        win = _bits_window(CellSet(R, a), CellSet(R, b), 2)
        m = _canonical_max_matching(win, R)
        m.validate(a, b)
        assert m.size() == scipy_max_matching_size(a, b, 2)


def test_canonical_matching_translation_covariant():
    rng = np.random.default_rng(7)
    a = rng.random((10, 10)) < 0.4
    b = rng.random((10, 10)) < 0.4
    big_a = np.zeros((60, 60), dtype=bool)
    big_b = np.zeros((60, 60), dtype=bool)
    big_a[5:15, 5:15] = a
    big_b[5:15, 5:15] = b
    big_a[37:47, 20:30] = a
    big_b[37:47, 20:30] = b
    big = Rect((-11, 4), (60, 60))
    win = _bits_window(CellSet(big, big_a), CellSet(big, big_b), 3)
    m1 = _canonical_max_matching(win, Rect((-11 + 5, 4 + 5), (10, 10)))
    m2 = _canonical_max_matching(win, Rect((-11 + 37, 4 + 20), (10, 10)))
    assert np.array_equal(m1.a_match, m2.a_match)
    assert np.array_equal(m1.b_match, m2.b_match)


def test_capped_bfs_trivial():
    a = np.zeros((3, 3), dtype=bool)
    b = np.zeros((3, 3), dtype=bool)
    a[0, 0] = True
    b[0, 1] = True
    am = np.full((3, 3), -1, dtype=np.int32)
    bm = am.copy()
    offsets = offsets_row_major(1, 2)
    bfs = _layered_bfs(a, b, am, bm, offsets, 1, 3)
    assert bfs.depth == 1 and np.argwhere(bfs.ends).tolist() == [[0, 1]]
    assert _layered_bfs(a, b, am, bm, offsets, 1, 0).ends is None  # cap below the path
    # fully matched: no path
    am[0, 0] = bm[0, 1] = 1 * 3 + 2  # offset (0, 1) in the 3x3 offset box
    bfs = _layered_bfs(a, b, am, bm, offsets, 1, 3)
    assert bfs.ends is None and bfs.depth == -1


def test_short_augmenting_suite_vs_uncapped_oracle():
    ok, details = suite_short_augmenting(5, trials=300)
    assert ok and details == {"disagreements": 0}


@pytest.mark.parametrize("name", ["_layered_bfs", "augment_phase"])
def test_short_augmenting_suite_catches_a_lowered_cap(monkeypatch, name):
    # the suite must fail when either capped routine searches one step short
    real = getattr(suites, name)

    def lowered(*args):
        return real(*args[:-1], args[-1] - 1)

    monkeypatch.setattr(suites, name, lowered)
    ok, details = suite_short_augmenting(5, trials=200)
    assert not ok and details["disagreements"] > 100


def test_hall_deficiency_examples():
    R = Rect((0, 0), (4, 4))
    a = np.zeros((4, 4), dtype=bool)
    b = np.zeros((4, 4), dtype=bool)
    win = _bits_window(CellSet(R, a), CellSet(R, b), 1)
    assert hall_deficiency(win, R, a, b) is None

    # two required A-cells sharing a single neighbour
    a2 = a.copy()
    b2 = b.copy()
    a2[0, 0] = a2[0, 2] = True
    b2[0, 1] = True
    win = _bits_window(CellSet(R, a2), CellSet(R, b2), 1)
    cert = hall_deficiency(win, R, CellSet.from_cells([(0, 0), (0, 2)], R).bits, b)
    assert cert is not None and cert.side == "A"
    assert len(cert.cells) == 2 and cert.neighborhood_size == 1

    # masks not shaped like R, and a required cell outside its part
    with pytest.raises(ArgumentError, match="shape of R"):
        hall_deficiency(win, R, a2[:3], b)
    with pytest.raises(ArgumentError, match="shape of R"):
        hall_deficiency(win, R, CellSet.from_cells([(0, 0)], R), b)
    with pytest.raises(ArgumentError, match="belong to their part"):
        hall_deficiency(win, R, a2, b2 | a2)


def test_hall_deficiency_vs_enumeration():
    ok, details = suite_hall(13)
    assert ok and details == {"disagreements": 0}


def test_matching_validate_catches_corruption():
    R = Rect((0, 0), (4, 4))
    m = Matching(R, 1)
    m.a_match[0, 0] = 4  # offset (0,0) in the 3x3 box
    with pytest.raises(ArgumentError):
        m.validate()


def _offset_slices(sides, off):
    src, dst = [], []
    for s, o in zip(sides, off):
        o = int(o)
        a0, b0 = max(0, -o), max(0, o)
        src.append(slice(a0, max(a0, s - max(0, o))))
        dst.append(slice(b0, max(b0, s - max(0, -o))))
    return tuple(src), tuple(dst)


def _greedy_offset_pass_reference(a_bits, b_bits, a_match, b_match, m_cap, region_id, order):
    """The dense form of the greedy pass: whole-array masks per offset."""
    offsets = offsets_row_major(m_cap, a_bits.ndim)
    for k in order:
        src, dst = _offset_slices(a_bits.shape, offsets[k])
        cand = (a_bits[src] & (a_match[src] < 0)) & (b_bits[dst] & (b_match[dst] < 0))
        if region_id is not None:
            rs = region_id[src]
            cand &= (rs >= 0) & (rs == region_id[dst])
        if not cand.any():
            continue
        a_match[src][cand] = k
        b_match[dst][cand] = k


def test_greedy_offset_pass_matches_dense_reference():
    rng = np.random.default_rng(11)
    for d, side in ((2, 13), (3, 6)):
        for m_cap in (1, 2, 3):
            for trial in range(12):
                shape = (side,) * d
                a = rng.random(shape) < rng.uniform(0.2, 0.7)
                b = rng.random(shape) < rng.uniform(0.2, 0.7)
                if trial % 3 == 0:
                    region = None
                elif trial % 3 == 1:
                    region = rng.integers(-1, 3, size=shape).astype(np.int32)
                else:  # blocks, with scattered cells outside every region
                    region = sum(
                        (np.indices(shape)[ax] // 4) * 10**ax for ax in range(d)
                    ).astype(np.int32)
                    region[rng.random(shape) < 0.2] = -1
                if trial % 2:
                    pre = _random_matching(rng, a, b, m_cap)
                    am0, bm0 = pre.a_match, pre.b_match
                else:
                    am0 = np.full(shape, -1, dtype=np.int32)
                    bm0 = np.full(shape, -1, dtype=np.int32)
                n_off = (2 * m_cap + 1) ** d
                orders = (  # (argument, the order it means)
                    (None, range(n_off)),
                    (range(n_off - 1, -1, -1),) * 2,
                    (_offsets_nearest_first(m_cap, d),) * 2,
                )
                for order, ref_order in orders:
                    ref_a, ref_b = am0.copy(), bm0.copy()
                    _greedy_offset_pass_reference(a, b, ref_a, ref_b, m_cap, region, ref_order)
                    # the pass under test writes into tile views of larger grids
                    big_a = np.full((side + 5,) * d, -7, dtype=np.int32)
                    big_b = big_a.copy()
                    sl = tuple(slice(2, 2 + side) for _ in range(d))
                    big_a[sl], big_b[sl] = am0, bm0
                    greedy_offset_pass(
                        a, b, big_a[sl], big_b[sl], m_cap, region_id=region, order=order
                    )
                    assert np.array_equal(big_a[sl], ref_a)
                    assert np.array_equal(big_b[sl], ref_b)
                    outside = np.ones(big_a.shape, dtype=bool)
                    outside[sl] = False
                    assert np.all(big_a[outside] == -7) and np.all(big_b[outside] == -7)


def test_offsets_nearest_first_order():
    for m_cap, d in ((1, 2), (3, 2), (2, 3)):
        offs = offsets_row_major(m_cap, d)
        order = _offsets_nearest_first(m_cap, d)
        assert sorted(order) == list(range(len(offs)))
        mag = np.abs(offs[order])
        keys = list(zip(mag.max(axis=1), mag.sum(axis=1), order))
        assert keys == sorted(keys)  # sup-norm, then l1, then row-major
        assert not order.flags.writeable


def test_ladder_and_cover_side_reach_maximum_whatever_the_greedy_order():
    rng = np.random.default_rng(29)
    shape = (137, 261)
    for m_cap in (1, 2, 3):
        for _ in range(3):
            a = rng.random(shape) < rng.uniform(0.2, 0.6)
            b = rng.random(shape) < rng.uniform(0.2, 0.6)
            am = np.full(shape, -1, dtype=np.int32)
            bm = np.full(shape, -1, dtype=np.int32)
            labels = np.empty((2,) + shape, dtype=np.int32)
            ladder_max_matching(a, b, am, bm, m_cap, labels)
            m = Matching(Rect((0, 0), shape), m_cap, am, bm)
            m.validate(a, b)
            assert m.size() == scipy_max_matching_size(a, b, m_cap)
            # a required subset of A, covered into B
            req = a & (rng.random(shape) < rng.uniform(0.3, 1.0))
            want = scipy_max_matching_size(req, b, m_cap)
            ok, am, bm, witness = cover_side(req, b, m_cap)
            m = Matching(Rect((0, 0), shape), m_cap, am, bm)
            m.validate(req, b)
            assert m.size() == want
            assert ok == (want == int(req.sum()))
            if not ok:  # the witness is a Hall-deficient set of A-cells
                assert not np.any(witness & ~req)
                assert int((dilate(witness, m_cap) & b).sum()) < int(witness.sum())


def test_cover_side_witness_is_the_alternating_reach():
    # on deficient covers, the forest's witness against the layered BFS from
    # the free cells of the same maximum matching; some covers leave no
    # B-cell free, where a sweep that stopped before growing would label
    # nothing
    rng = np.random.default_rng(43)
    deficient = no_free_b = 0
    for d, side in ((1, 40), (2, 9), (3, 5)):
        shape = (side,) * d
        for m_cap in (1, 2, 3):
            offsets = offsets_row_major(m_cap, d)
            for _ in range(40):
                a = rng.random(shape) < rng.uniform(0.2, 0.7)
                b = rng.random(shape) < rng.uniform(0.02, 0.4)
                ok, am, bm, witness = cover_side(a, b, m_cap)
                if ok:
                    continue
                deficient += 1
                no_free_b += not (b & (bm < 0)).any()
                bfs = _layered_bfs(a, b, am, bm, offsets, m_cap, 2 * a.size + 1)
                assert np.array_equal(witness, bfs.layer_a >= 0)
    assert no_free_b > 200 and deficient - no_free_b > 50, (deficient, no_free_b)


def test_cover_side_sweeps_once_past_the_maximum(monkeypatch):
    # a deficient cover reads its witness off the sweep that flipped
    # nothing, so no sweep follows it
    real, flips = matching._forest_sweep, []

    def counted(*args):
        flips.append(real(*args))
        return flips[-1]

    monkeypatch.setattr(matching, "_forest_sweep", counted)
    rng = np.random.default_rng(1)
    a = rng.random((40, 40)) < 0.5
    b = rng.random((40, 40)) < 0.3
    ok, am, bm, witness = cover_side(a, b, 2)
    assert not ok and flips == [2, 0]
    assert int(witness.sum()) == 796
    bfs = _layered_bfs(a, b, am, bm, offsets_row_major(2, 2), 2, 2 * a.size + 1)
    assert np.array_equal(witness, bfs.layer_a >= 0)


def test_hierarchy_augment_reaches_maximum_from_a_partial_matching():
    # sweeps reach a maximum from any matching, not only from the greedy
    # pass that ladder_max_matching runs first
    rng = np.random.default_rng(31)
    flipped = 0
    for d, side in ((1, 300), (2, 40), (3, 12)):
        shape = (side,) * d
        for m_cap in (1, 2, 3):
            for _ in range(2):
                a = rng.random(shape) < rng.uniform(0.2, 0.6)
                b = rng.random(shape) < rng.uniform(0.2, 0.6)
                pre = _random_matching(rng, a, b, m_cap)
                before = pre.size()
                am, bm = pre.a_match.copy(), pre.b_match.copy()
                labels = np.empty((2,) + shape, dtype=np.int32)
                flips = hierarchy_augment(a, b, am, bm, m_cap, labels)
                m = Matching(Rect((0,) * d, shape), m_cap, am, bm)
                m.validate(a, b)
                assert m.size() == before + flips == scipy_max_matching_size(a, b, m_cap)
                flipped += flips
    assert flipped > 0


def test_forest_sweeps_reach_the_maximum_in_tile_views():
    # sweeps on a tile view of larger grids, pre-matched in part, with edges
    # that cross the tile's border: the cells on those edges stay fixed, and
    # the rest ends as a maximum matching of the tile (augment_to_max and the
    # scipy oracle), written through the views and nowhere else
    rng = np.random.default_rng(17)
    crossed = 0
    for d, side in ((1, 60), (2, 19), (3, 8)):
        big = (side + 6,) * d
        sl = tuple(slice(3, 3 + side) for _ in range(d))
        for m_cap in (1, 2, 3):
            for _ in range(3):
                a_big = rng.random(big) < rng.uniform(0.2, 0.6)
                b_big = rng.random(big) < rng.uniform(0.2, 0.6)
                pre = _random_matching(rng, a_big, b_big, m_cap)
                ref_a, ref_b = pre.a_match.copy(), pre.b_match.copy()
                augment_to_max(a_big[sl], b_big[sl], ref_a[sl], ref_b[sl], m_cap)
                am, bm = pre.a_match.copy(), pre.b_match.copy()
                a, b = a_big[sl], b_big[sl]
                labels = np.empty((2,) + a.shape, dtype=np.int32)
                for _ in range(int(a.sum()) + 2):
                    if _forest_sweep(a, b, am[sl], bm[sl], m_cap, labels) == 0:
                        break
                else:
                    raise AssertionError("sweeps kept reporting flips")
                Matching(Rect((0,) * d, big), m_cap, am, bm).validate(a_big, b_big)
                outside = np.ones(big, dtype=bool)
                outside[sl] = False
                assert np.array_equal(am[outside], pre.a_match[outside])
                assert np.array_equal(bm[outside], pre.b_match[outside])
                # cells matched across the border: A-cells whose partner lies
                # outside, B-cells whose partner does
                offs = offsets_row_major(m_cap, d)
                inner = np.zeros(big, dtype=bool)
                inner[sl] = True
                cross_a = inner & (pre.a_match >= 0)
                cross_a[cross_a] = ~inner[tuple((np.argwhere(cross_a) + offs[pre.a_match[cross_a]]).T)]
                cross_b = inner & (pre.b_match >= 0)
                cross_b[cross_b] = ~inner[tuple((np.argwhere(cross_b) - offs[pre.b_match[cross_b]]).T)]
                assert np.all(am[cross_a] == pre.a_match[cross_a])
                assert np.all(bm[cross_b] == pre.b_match[cross_b])
                crossed += int(cross_a.sum() + cross_b.sum())
                size = int((am[sl] >= 0).sum())
                assert size == int((ref_a[sl] >= 0).sum())
                free_a, free_b = (a_big & ~cross_a)[sl], (b_big & ~cross_b)[sl]
                want = int(cross_a.sum()) + scipy_max_matching_size(free_a, free_b, m_cap)
                assert size == want
    assert crossed  # the border case ran


def _first_true(mask) -> tuple | None:
    flat = np.flatnonzero(mask.ravel())
    if len(flat) == 0:
        return None
    return tuple(int(x) for x in np.unravel_index(flat[0], mask.shape))


def _apply_flip(nodes, a_match, b_match, m_cap):
    """Flip the alternating path given as nodes [b_end, a, b, ..., a_start]."""
    box = 2 * m_cap + 1
    for i in range(1, len(nodes), 2):
        a, b = nodes[i], nodes[i - 1]
        k = 0
        for aa, bb in zip(a, b):
            k = k * box + (bb - aa + m_cap)
        a_match[a] = k
        b_match[b] = k


def _walk_back_patch_search(end, bfs, a_match, offsets, m_cap, used_a, used_b, log):
    """The walk-back in coordinates, with no parent pointers: each step
    searches the (2M+1)^d patch for the row-major first cell of the layer
    before that ``used_a`` does not hold. ``log`` counts the steps that take
    the first cell of the layer (the BFS parent), the steps that pass it
    over, and the blocked walks."""
    layer_a = bfs.layer_a
    sides = layer_a.shape
    nodes = [end]
    cur = end
    lev = int(bfs.layer_b[end])
    while lev > 0:
        lo = tuple(max(0, c - m_cap) for c in cur)
        hi = tuple(min(s, c + m_cap + 1) for c, s in zip(cur, sides))
        patch = tuple(slice(l, h) for l, h in zip(lo, hi))
        cand = layer_a[patch] == lev - 1
        first = _first_true(cand)
        pos = _first_true(cand & ~used_a[patch])
        if pos is None:
            log["blocked"] += 1
            return None
        log["parent" if pos == first else "patch"] += 1
        a = tuple(p + l for p, l in zip(pos, lo))
        nodes.append(a)
        lev -= 1
        if lev == 0:
            break
        b = tuple(int(c + o) for c, o in zip(a, offsets[a_match[a]]))
        if used_b[b]:
            log["blocked"] += 1
            return None
        nodes.append(b)
        cur = b
        lev -= 1
    return nodes


def _phase_patch_search(a_bits, b_bits, a_match, b_match, m_cap, cap_len, row_region, log):
    """A phase peeled in coordinates: a patch search at every step, each
    path flipped as soon as it is found, and ``used_a`` / ``used_b`` grids
    of the cells on flipped paths. Returns the rows of the flipped ends."""
    offsets = offsets_row_major(m_cap, a_bits.ndim)
    bfs = _layered_bfs(a_bits, b_bits, a_match, b_match, offsets, m_cap, cap_len, row_region)
    if bfs.ends is None:
        return []
    used_a = np.zeros(a_bits.shape, dtype=bool)
    used_b = np.zeros(a_bits.shape, dtype=bool)
    rows = []
    for end in map(tuple, np.argwhere(bfs.ends).tolist()):
        if used_b[end]:
            continue
        nodes = _walk_back_patch_search(end, bfs, a_match, offsets, m_cap, used_a, used_b, log)
        if nodes is None:
            continue
        _apply_flip(nodes, a_match, b_match, m_cap)
        for i, n in enumerate(nodes):
            (used_b if i % 2 == 0 else used_a)[n] = True
        rows.append(end[0])
    return rows


def test_bfs_parent_is_first_patch_cell_of_previous_layer():
    rng = np.random.default_rng(17)
    for d, side, m_cap in ((2, 9, 1), (2, 10, 2), (3, 5, 1)):
        offsets = offsets_row_major(m_cap, d)
        for _ in range(60):
            a = rng.random((side,) * d) < 0.4
            b = rng.random((side,) * d) < 0.4
            m = _random_matching(rng, a, b, m_cap)
            for cap in (1, 3, 99):
                bfs = _layered_bfs(a, b, m.a_match, m.b_match, offsets, m_cap, cap)
                for cell in np.argwhere(bfs.layer_b >= 0):
                    cell = tuple(cell)
                    lev = bfs.layer_b[cell]
                    patch = tuple(
                        slice(max(0, c - m_cap), min(side, c + m_cap + 1)) for c in cell
                    )
                    pos = _first_true(bfs.layer_a[patch] == lev - 1)
                    first = tuple(p + s.start for p, s in zip(pos, patch))
                    assert bfs.parent[cell] == np.ravel_multi_index(first, a.shape)
    # with no free start cell nothing is labelled
    a = np.zeros((4, 4), dtype=bool)
    free = np.full((4, 4), -1, dtype=np.int32)
    bfs = _layered_bfs(a, a, free, free, offsets_row_major(1, 2), 1, 9)
    assert bfs.ends is None and bfs.depth == -1
    assert np.all(bfs.layer_a == -1) and np.all(bfs.layer_b == -1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_window_min_equals_scipy_minimum_filter(d):
    # the rank grid: rank i at the i-th frontier cell in row-major order, the
    # frontier's size n elsewhere, in the narrowest unsigned type holding n
    from scipy.ndimage import minimum_filter

    def check(shape, pts, m_cap):
        n = len(pts)
        grid = np.full(shape, n, dtype=np.int64)
        grid[tuple(pts.T)] = np.arange(n)
        want = minimum_filter(grid, size=2 * m_cap + 1, mode="constant", cval=n)
        got = _window_min(pts, shape, m_cap)
        assert got.dtype == np.min_scalar_type(n) and np.array_equal(got, want), (shape, m_cap)
        return got.dtype

    rng = np.random.default_rng(40 + d)
    narrow = edge = 0
    for m_cap in range(1, 10):
        for _ in range(12):
            # sides from 1 to past 2M + 1, so some boxes are narrower than a window
            shape = tuple(int(s) for s in rng.integers(1, min(2 * m_cap + 6, 60 // d), size=d))
            frontier = rng.random(shape) < rng.choice([0.02, 0.1, 0.4])
            corner = tuple(int(rng.integers(2)) * (s - 1) for s in shape)
            frontier[corner] = True  # a frontier cell on the box edge
            pts = np.argwhere(frontier)
            check(shape, pts, m_cap)
            narrow += min(shape) < 2 * m_cap + 1
            edge += bool((pts == 0).any() or (pts == np.array(shape) - 1).any())
    assert narrow > 0 and edge > 0
    # frontiers at each edge of the rank types: 255 and 65,535 cells keep the
    # sentinel in uint8 and uint16, one more cell needs the next type
    shape = {1: (70_000,), 2: (300, 300), 3: (45, 45, 45)}[d]
    dtypes = set()
    for n in (255, 256, 65_535, 65_536):
        flat = np.sort(rng.choice(int(np.prod(shape)), size=n, replace=False))
        pts = np.stack(np.unravel_index(flat, shape), axis=1)
        dtypes.add(check(shape, pts, int(rng.integers(1, 4))))
    assert dtypes == {np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.uint32)}


def test_a_to_b_ignores_frontier_order(monkeypatch):
    # the forest passes its partners unsorted; with no band gap, sparse
    # frontiers split into row bands, dense ones do not
    monkeypatch.setattr(matching, "BAND_GAP", 0)
    rng = np.random.default_rng(37)
    banded = 0
    for d, shape in ((1, (400,)), (2, (160, 12)), (2, (30, 30)), (3, (80, 5, 5))):
        for m_cap in (1, 2, 3):
            for _ in range(8):
                a = rng.random(shape) < rng.uniform(0.01, 0.5)
                if not a.any():
                    continue
                b = rng.random(shape) < 0.5
                label_b = np.where(rng.random(shape) < 0.2, 3, -1).astype(np.int32)
                pts = np.argwhere(a)
                bs, parents = _a_to_b(pts, b, label_b, m_cap)
                got_bs, got_parents = _a_to_b(rng.permutation(pts), b, label_b, m_cap)
                assert np.array_equal(got_bs, bs) and np.array_equal(got_parents, parents)
                banded += len(matching._row_bands(pts, m_cap)) > 1
    assert banded > 10, banded


def test_row_bands_leave_the_bfs_unchanged(monkeypatch):
    # sparse frontiers on tall grids: with no band gap the A -> B step splits
    # wherever rows lie over 2M apart, and every label and parent must stay
    rng = np.random.default_rng(31)
    split = 0
    for d, shape, m_cap in ((1, (200,), 2), (2, (90, 7), 1), (2, (90, 9), 2), (3, (40, 4, 4), 1)):
        offsets = offsets_row_major(m_cap, d)
        for _ in range(20):
            a = rng.random(shape) < 0.15
            b = rng.random(shape) < 0.4
            m = _loose_matching(rng, a, b, m_cap)
            want = _layered_bfs(a, b, m.a_match, m.b_match, offsets, m_cap, 99)
            with monkeypatch.context() as mp:
                mp.setattr(matching, "BAND_GAP", 0)
                got = _layered_bfs(a, b, m.a_match, m.b_match, offsets, m_cap, 99)
                split += len(matching._row_bands(np.argwhere(a & (m.a_match < 0)), m_cap)) > 1
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
    assert split > 40


def test_augment_phase_equals_patch_search_walk_back(monkeypatch):
    # every phase, on single regions and on packs, against the peel in
    # coordinates with a patch search at every step and immediate flips
    log = collections.Counter()
    fast_phase = matching._phase

    def both_phases(a_bits, b_bits, a_match, b_match, m_cap, cap_len, row_region=None):
        ref_a, ref_b = a_match.copy(), b_match.copy()
        want = _phase_patch_search(a_bits, b_bits, ref_a, ref_b, m_cap, cap_len, row_region, log)
        got = fast_phase(a_bits, b_bits, a_match, b_match, m_cap, cap_len, row_region)
        assert got.tolist() == want
        assert np.array_equal(a_match, ref_a) and np.array_equal(b_match, ref_b)
        return got

    monkeypatch.setattr(matching, "_phase", both_phases)
    rng = np.random.default_rng(23)
    for d, side, m_cap in ((1, 60, 2), (2, 12, 1), (2, 12, 2), (3, 6, 1)):
        shape = (side,) * d
        for _ in range(25):
            a = rng.random(shape) < 0.5
            b = rng.random(shape) < 0.5
            m = _random_matching(rng, a, b, m_cap)
            for cap in (3, 99):
                augment_phase(a, b, m.a_match.copy(), m.b_match.copy(), m_cap, cap)
        for _ in range(6):
            a = rng.random(shape) < rng.uniform(0.3, 0.6)
            b = rng.random(shape) < rng.uniform(0.3, 0.6)
            m = _loose_matching(rng, a, b, m_cap)
            regions = _random_regions(rng, shape)
            lows = [[s.start for s in sl] for sl in regions]
            sides = [[s.stop - s.start for s in sl] for sl in regions]
            for cap in (None, 3):
                am, bm = m.a_match.copy(), m.b_match.copy()
                _augment_regions(a, b, am, bm, m_cap, lows, sides, cap)
    assert log["parent"] and log["patch"] and log["blocked"], log


def _loose_matching(rng, a, b, m_cap):
    """A fast random non-maximum matching: greedy over shuffled offsets,
    then about a third of its edges dropped."""
    am = np.full(a.shape, -1, dtype=np.int32)
    bm = np.full(a.shape, -1, dtype=np.int32)
    order = rng.permutation(len(offsets_row_major(m_cap, a.ndim)))
    greedy_offset_pass(a, b, am, bm, m_cap, order=order)
    m = Matching(Rect((0,) * a.ndim, a.shape), m_cap, am, bm)
    a_idx, _, b_idx = m.edges()
    drop = rng.random(len(a_idx)) < 0.35
    am[tuple(a_idx[drop].T)] = -1
    bm[tuple(b_idx[drop].T)] = -1
    return m


def _random_regions(rng, shape):
    """Some boxes of a random grid of cuts: disjoint regions of unequal
    shapes, in row-major order of their corners or shuffled."""
    axes = []
    for n in shape:
        cuts = np.sort(rng.choice(np.arange(1, n), size=min(n - 1, 3), replace=False))
        axes.append(list(zip([0, *cuts], [*cuts, n])))
    boxes = [tuple(slice(lo, hi) for lo, hi in box) for box in itertools.product(*axes)]
    keep = [box for box in boxes if rng.random() < 0.7] or boxes[:1]
    if rng.random() < 0.5:
        rng.shuffle(keep)
    return keep


@pytest.mark.parametrize("pack_cells", [None, 1])
def test_packed_phases_equal_one_region_phases(monkeypatch, pack_cells):
    # _augment_regions against augment_phase looped on each region alone, on
    # random matchings of the whole grid, so partners lie outside regions;
    # with a one-cell pack bound every region packs alone
    if pack_cells is not None:
        monkeypatch.setattr(matching, "PACK_CELLS", pack_cells)
    rng = np.random.default_rng(29)
    crossed = 0
    for d, side in ((1, 90), (2, 26), (3, 11)):
        for m_cap in (1, 2, 3):
            for _ in range(3):
                shape = (side,) * d
                a = rng.random(shape) < rng.uniform(0.3, 0.6)
                b = rng.random(shape) < rng.uniform(0.3, 0.6)
                m = _loose_matching(rng, a, b, m_cap)
                regions = _random_regions(rng, shape)
                region_id = np.full(shape, -1)
                for i, sl in enumerate(regions):
                    region_id[sl] = i
                inner = region_id >= 0
                lows = [[s.start for s in sl] for sl in regions]
                sides = [[s.stop - s.start for s in sl] for sl in regions]
                for cap in (None, 1, 3, 5):
                    got_a, got_b = m.a_match.copy(), m.b_match.copy()
                    _augment_regions(a, b, got_a, got_b, m_cap, lows, sides, cap)
                    ref_a, ref_b = m.a_match.copy(), m.b_match.copy()
                    for sl in regions:
                        if cap is None:
                            augment_to_max(a[sl], b[sl], ref_a[sl], ref_b[sl], m_cap)
                        else:
                            while augment_phase(a[sl], b[sl], ref_a[sl], ref_b[sl], m_cap, cap):
                                pass
                    assert np.array_equal(got_a, ref_a) and np.array_equal(got_b, ref_b)
                    assert np.array_equal(got_a[~inner], m.a_match[~inner])
                # B-cells in a region matched out of it
                bs = np.argwhere(inner & (m.b_match >= 0))
                partners = bs - offsets_row_major(m_cap, d)[m.b_match[tuple(bs.T)]]
                crossed += int((region_id[tuple(partners.T)] != region_id[tuple(bs.T)]).sum())
    assert crossed > 100
