import hashlib

import numpy as np
import pytest

from eqdec.baire import (
    _ball_members,
    _Covering,
    _OracleContext,
    _sparse_edges,
    build_nets,
    extendable_oracle,
    greedy_step,
    net_side,
    run_baire,
)
from eqdec.errors import ArgumentError
from eqdec.lattice import CellSet, Rect
from eqdec.matching import Matching
from eqdec.suites import _bits_window, suite_extendable
from eqdec.torus import (
    AxisSquare,
    Bitmap,
    Disk,
    TorusPoint,
    offsets_row_major,
    sample_free_system,
    torus_delta,
)
from eqdec.window import _min_translation_distance, build_sparse_coloring, extract_window
from test_matching import scipy_max_matching_size


def _shapes(area=0.15):
    disk = Disk(TorusPoint([0.5, 0.5]), float(np.sqrt(area / np.pi)))
    square = AxisSquare(TorusPoint([0.1, 0.55]), float(np.sqrt(area)))
    return disk, square


def _window(side=256, seed=7, m_cap=8):
    sys = sample_free_system(seed, 2, 2, m_cap)
    disk, square = _shapes()
    return extract_window(
        disk, square, sys, TorusPoint([0.3, 0.7]), Rect((-side // 2,) * 2, (side,) * 2)
    )


def test_build_nets_empty_part():
    sys = sample_free_system(7, 2, 2, 8)
    empty = Bitmap(resolution=4, bits=np.zeros((4, 4), dtype=bool))
    full = Bitmap(resolution=4, bits=np.ones((4, 4), dtype=bool))
    win = extract_window(full, empty, sys, TorusPoint([0.1, 0.2]), Rect((-64, -64), (128, 128)))
    ladder = build_nets(win, (8,), seed=3, placement_margins=[25])
    assert ladder.sides == ("B",)
    assert ladder.nets[0].size() == 0  # B part is empty


def test_build_nets_sparsity_and_interior():
    win = _window(256)
    radii = (8, 16)
    margins = [25, 41]
    ladder = build_nets(win, radii, seed=5, placement_margins=margins, net_cap=20)
    for lv, net in enumerate(ladder.nets):
        cells = net.cells()
        bound = radii[lv] + 4 * win.sys.m_cap
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                assert np.abs(cells[i] - cells[j]).max() > bound
        part = win.b_bits if ladder.sides[lv] == "B" else win.a_bits
        for c in cells:
            assert part.contains(c)
            assert all(
                l + margins[lv] <= x < l + s - margins[lv]
                for x, l, s in zip(c, win.window.low, win.window.sides)
            )
    assert net_side(1) == "B" and net_side(2) == "A"


def _build_nets_reference(win, radii, seed, placement_margins, candidate_cap, net_cap):
    """The per-centre scan that ``build_nets`` replaced: each centre tests
    every interior part cell. Returns each level's kept cells, in order, and
    how many ball members it met across the wrap of the first coordinate."""
    m_cap = win.sys.m_cap
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x6E657473]))
    alpha = rng.random(win.sys.k)
    y0 = rng.random(win.sys.k)
    coords = win.torus_coords()
    nets, wrapped = [], 0
    for level, r in enumerate(radii, start=1):
        part = win.a_bits.bits if net_side(level) == "A" else win.b_bits.bits
        sparsity = r + 4 * m_cap
        eps = _min_translation_distance(win.sys, sparsity) / 2 * (1 - 1e-9)
        margin = int(placement_margins[level - 1])
        interior = np.zeros(win.window.sides, dtype=bool)
        if all(s > 2 * margin for s in win.window.sides):
            interior[tuple(slice(margin, s - margin) for s in win.window.sides)] = True
        part_idx = np.argwhere(part & interior)
        part_coords = coords[tuple(part_idx.T)]
        kept = []
        for t in range(candidate_cap):
            if len(kept) >= net_cap or len(part_idx) == 0:
                break
            y = (y0 + t * alpha) % 1.0
            near = torus_delta(part_coords, y).max(axis=-1) <= eps
            wrapped += int((near & (np.abs(part_coords[:, 0] - y[0]) > 0.5)).sum())
            for c in part_idx[near]:
                if len(kept) >= net_cap:
                    break
                if all(np.abs(c - k).max() > sparsity for k in kept):
                    kept.append(c)
        nets.append(np.array(kept, dtype=np.int64).reshape(-1, win.d) + np.array(win.window.low))
    return nets, wrapped


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_build_nets_equals_the_per_centre_scan(d, k):
    # free systems need d >= 2 generators, so d = 1 has no window to build
    side, m_cap = (96, 2) if d == 2 else (22, 1)
    radii, margins = (2, 4, 8), (3, 5, 7)
    kept = wrapped = 0
    for seed in range(4):
        sys = sample_free_system(100 * seed + 10 * d + k, k, d, m_cap)
        rng = np.random.default_rng(seed)
        shape_a = Disk(TorusPoint(rng.random(k)), 0.2)
        shape_b = AxisSquare(TorusPoint(rng.random(k)), 0.35)
        win = extract_window(
            shape_a, shape_b, sys, TorusPoint(rng.random(k)), Rect((-side // 2,) * d, (side,) * d)
        )
        for net_cap, candidate_cap in ((3, 8), (10_000, 400)):
            ladder = build_nets(win, radii, seed, margins, candidate_cap, net_cap)
            ref, across = _build_nets_reference(win, radii, seed, margins, candidate_cap, net_cap)
            for net, cells in zip(ladder.nets, ref):
                assert set(map(tuple, net.cells().tolist())) == set(map(tuple, cells.tolist()))
                kept += len(cells)
            wrapped += across
    # in d = 3 these windows are too small for a ball across the wrap to
    # catch a cell; the wrap's edges are pinned by the test below
    assert kept > 0 and (wrapped > 0 or d == 3), (kept, wrapped)


def test_ball_members_at_the_slab_edge_and_across_the_wrap():
    rng = np.random.default_rng(5)
    eps = 0.0123
    ulp_steps = np.arange(-4, 5)
    for y_first in (0.0, 1e-300, eps / 3, eps, 0.5, 1 - eps, 1 - eps / 2, np.nextafter(1.0, 0)):
        y = np.array([y_first, 0.4])
        edges = np.array([y_first - eps, y_first + eps])
        edges = np.concatenate([edges - 1, edges, edges + 1])
        firsts = [e + j * np.spacing(max(abs(e), 1e-300)) for e in edges for j in ulp_steps]
        firsts = np.array(firsts + list(rng.random(40)))
        firsts = firsts[(firsts >= 0) & (firsts < 1)]
        coords = np.stack([firsts, 0.4 + rng.uniform(-eps, eps, len(firsts))], axis=1)
        coords = np.concatenate([coords, coords[::-1]])  # ties in the first coordinate
        order = np.argsort(coords[:, 0], kind="stable")
        got = _ball_members(order, coords[order, 0], coords, y, eps)
        want = np.flatnonzero(torus_delta(coords, y).max(axis=-1) <= eps)
        assert np.array_equal(got, want), y_first


def test_oracle_isolated_pair_and_conflict():
    a = np.zeros((13, 13), dtype=bool)
    b = np.zeros((13, 13), dtype=bool)
    a[6, 6] = True
    b[6, 7] = True
    R = Rect((0, 0), a.shape)
    win = _bits_window(CellSet(R, a.copy()), CellSet(R, b.copy()), 2)
    m = Matching(win.window, 2)
    assert extendable_oracle(m, win, (6, 6), (6, 7), 4) is True
    # partner already matched: immediate conflict
    b[6, 5] = True
    a[5, 4] = True
    win = _bits_window(CellSet(R, a), CellSet(R, b), 2)
    m = Matching(win.window, 2)
    k = int(np.ravel_multi_index((2 + 1, 2 + 1), (5, 5)))  # offset (1, 1)
    m.a_match[5, 4] = k
    m.b_match[6, 5] = k
    assert extendable_oracle(m, win, (6, 6), (6, 5), 4) is False


def test_oracle_vs_exhaustive_enumeration():
    ok, details = suite_extendable(17)
    assert ok and details == {"disagreements": 0}


@pytest.mark.parametrize("verdict", [True, False])
def test_extendable_suite_catches_a_constant_oracle(monkeypatch, verdict):
    # the suite must fail when every candidate check gives the same answer
    monkeypatch.setattr(_OracleContext, "check", lambda self, partner: verdict)
    ok, details = suite_extendable(17, trials=300)
    assert not ok and details["disagreements"] >= 0.4 * 300


def test_oracle_monotone_in_horizon():
    rng = np.random.default_rng(23)
    win = _window(200)
    m = Matching(win.window, 8)
    acells = win.a_bits.cells()
    inner = [
        c
        for c in acells
        if all(l + 60 <= x < l + s - 60 for x, l, s in zip(c, win.window.low, win.window.sides))
    ]
    offsets = offsets_row_major(8, 2)
    checked = 0
    for idx in rng.permutation(len(inner))[:12]:
        x = tuple(int(v) for v in inner[idx])
        low = np.array(win.window.low)
        for off in offsets:
            y = tuple(int(v + o) for v, o in zip(x, off))
            rel = tuple(p - l for p, l in zip(y, low))
            if all(0 <= p < s for p, s in zip(rel, win.window.sides)) and win.b_bits.bits[rel]:
                at_big = extendable_oracle(m, win, x, y, 40)
                at_small = extendable_oracle(m, win, x, y, 16)
                if at_big:
                    assert at_small
                checked += 1
                break
    assert checked >= 8


def test_oracle_horizon_exceeds_window():
    win = _window(64)
    m = Matching(win.window, 8)
    x = tuple(win.a_bits.cells()[0])
    with pytest.raises(ArgumentError):
        extendable_oracle(m, win, x, x, 100)


def test_greedy_step_empty_net_is_noop():
    win = _window(128)
    from eqdec.baire import SparseNetLadder
    from eqdec.window import build_sparse_coloring

    ladder = SparseNetLadder(
        radii=(8,),
        m_cap=8,
        sides=("B",),
        nets=(CellSet.empty(win.window),),
        condition_partials=(0.5,),
        condition_bound=0.25,
    )
    coloring = build_sparse_coloring(win.sys, 16)
    m = Matching(win.window, 8)
    out, rep = greedy_step(m, 1, ladder, coloring, 16, win)
    assert out.size() == 0 and rep.added == 0


def _sparse_edges_loop(edges, bound):
    """Reference: every pair of edges, every pair of their endpoints."""
    for i, e1 in enumerate(edges):
        for e2 in edges[i + 1 :]:
            if min(max(abs(a - b) for a, b in zip(p, q)) for p in e1 for q in e2) <= bound:
                return False
    return True


def test_sparse_edges_equals_the_pairwise_loop():
    rng = np.random.default_rng(5)
    verdicts = set()
    for _ in range(400):
        d = int(rng.integers(2, 4))
        edges = [tuple(tuple(int(x) for x in rng.integers(0, 60, d)) for _ in "ab")
                 for _ in range(int(rng.integers(0, 6)))]
        bound = int(rng.integers(0, 24))
        want = _sparse_edges_loop(edges, bound)
        assert _sparse_edges(edges, bound) == want
        verdicts.add(want)
    assert verdicts == {True, False}


def test_run_baire_small_end_to_end():
    win = _window(384)
    a, b = win.a_bits, win.b_bits
    bits = a.bits.copy(), b.bits.copy()
    res = run_baire(win, (8, 24), seed=11, net_cap=6)
    # the window is input only
    assert win.a_bits is a and win.b_bits is b
    assert np.array_equal(a.bits, bits[0]) and np.array_equal(b.bits, bits[1])
    assert all(r.added == r.net_size for r in res.reports)
    assert all(r.sparsity_ok for r in res.reports)
    assert all(r.hall_ok for r in res.reports)
    res.matching.validate(win.a_bits.bits, win.b_bits.bits)
    total = sum(r.added for r in res.reports)
    assert res.matching.size() == total > 0


# SHA-256 of a_match + b_match bytes for the run above; a pure refactor must
# leave it unchanged.
GOLDEN_BAIRE = "fde52dd9713810291d113b992d112cb3899594830bc7d979ffefefa2870cee58"


def test_baire_run_golden_hash():
    m = run_baire(_window(384), (8, 24), seed=11, net_cap=6).matching
    digest = hashlib.sha256(m.a_match.tobytes() + m.b_match.tobytes()).hexdigest()
    assert digest == GOLDEN_BAIRE


# The same for three levels on a 768² window: the level-3 horizon regions are
# 305² wide, so the covers span regions wider than 256 cells.
GOLDEN_BAIRE_THREE_LEVELS = "41720f9e16f1c5e2a8683fb946d1250d8b0b6aaeea165139313dfa979e05fdc4"


def test_baire_three_level_golden_hash():
    m = run_baire(_window(768), (8, 24, 72), seed=11, net_cap=6).matching
    digest = hashlib.sha256(m.a_match.tobytes() + m.b_match.tobytes()).hexdigest()
    assert digest == GOLDEN_BAIRE_THREE_LEVELS


def test_greedy_step_leaves_the_matching_it_extends_unchanged():
    win = _window(384)
    radii, m_cap = (8, 24), win.sys.m_cap
    horizons = [2 * r for r in radii]
    ladder = build_nets(win, radii, 11, [h + m_cap + 1 for h in horizons], net_cap=6)
    coloring = build_sparse_coloring(win.sys, 2 * m_cap)
    m = Matching(win.window, m_cap)
    for level, horizon in enumerate(horizons, start=1):
        prev = m.a_match.copy(), m.b_match.copy()
        m_prev = m
        m, rep = greedy_step(m, level, ladder, coloring, horizon, win)
        assert np.array_equal(m_prev.a_match, prev[0])
        assert np.array_equal(m_prev.b_match, prev[1])
        assert rep.added > 0 and m.size() == m_prev.size() + rep.added


@pytest.mark.parametrize("m_cap", [1, 2, 3])
def test_covering_answers_equal_the_max_flow_oracle(m_cap):
    # random regions of a few hundred cells, each with three required sets:
    # a random one (often deficient), the cells a maximum matching of it
    # covers (full, with no slack), and those plus one more (deficient by
    # exactly one); every answer is checked against scipy
    rng = np.random.default_rng(40 + m_cap)
    seen = set()
    for _ in range(8):
        shape = tuple(int(s) for s in rng.integers(14, 21, size=2))
        dens = rng.uniform(0.1, 0.4)
        left = rng.random(shape) < dens
        right = rng.random(shape) < dens * rng.uniform(0.5, 1.1)
        req = left & (rng.random(shape) < rng.uniform(0.7, 1.0))
        tight = req & (_Covering(req, right, m_cap).lmatch >= 0)
        one_short = tight.copy()
        one_short[tuple(np.argwhere(req & ~tight)[:1].T)] = True
        for req in (req, tight, one_short):
            cov = _Covering(req, right, m_cap)
            before = cov.lmatch.copy(), cov.rmatch.copy()
            n = int(req.sum())
            assert cov.ok == (scipy_max_matching_size(req, right, m_cap) == n)
            matched = rng.permutation(np.argwhere(cov.rmatch >= 0))[:4]
            for cell in np.concatenate([rng.permutation(np.argwhere(right))[:4], matched]):
                cell = tuple(cell)
                avail = right.copy()
                avail[cell] = False
                want = scipy_max_matching_size(req, avail, m_cap) == n
                assert cov.feasible_without_right(cell) == want
                seen.add(("right", cov.ok, want))
            for cell in rng.permutation(np.argwhere(left))[:8]:
                cell = tuple(cell)
                rest = req.copy()
                rest[cell] = False
                want = scipy_max_matching_size(rest, right, m_cap) == int(rest.sum())
                assert cov.feasible_without_left(cell) == want
                seen.add(("left", cov.ok, want))
            assert np.array_equal(cov.lmatch, before[0])
            assert np.array_equal(cov.rmatch, before[1])
    # full covers that a removed right cell keeps or breaks, and deficient
    # ones that dropping a required cell mends or does not
    assert {("right", True, True), ("right", True, False), ("right", False, False)} <= seen
    assert {("left", True, True), ("left", False, True), ("left", False, False)} <= seen


def test_oracle_checks_leave_their_context_unchanged():
    rng = np.random.default_rng(8)
    m_cap, horizon = 1, 3
    side = 2 * (horizon + m_cap) + 1
    centre = (side // 2, side // 2)
    outcomes = set()
    for _ in range(200):
        a = rng.random((side, side)) < rng.uniform(0.2, 0.6)
        b = rng.random((side, side)) < rng.uniform(0.2, 0.6)
        a[centre] = True
        R = Rect((0, 0), a.shape)
        win = _bits_window(CellSet(R, a), CellSet(R, b), m_cap)
        ctx = _OracleContext(Matching(R, m_cap), win, centre, "A", horizon)
        covers = (ctx.cover_a, ctx.cover_b)
        before = [g.copy() for c in covers for g in (c.lmatch, c.rmatch)]
        before += [ctx.a_in.copy(), ctx.b_in.copy()]
        for off in offsets_row_major(m_cap, 2):
            partner = tuple(int(c + o) for c, o in zip(centre, off))
            outcomes.add((ctx.cover_a.ok, ctx.cover_b.ok, ctx.check(partner)))
        after = [g for c in covers for g in (c.lmatch, c.rmatch)] + [ctx.a_in, ctx.b_in]
        assert all(np.array_equal(x, y) for x, y in zip(before, after))
    # accepted and rejected checks, also with the other side's cover deficient
    assert {(True, True, True), (True, True, False), (True, False, False)} <= outcomes
    assert (True, False, True) in outcomes

