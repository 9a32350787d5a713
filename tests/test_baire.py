import hashlib

import numpy as np
import pytest

from eqdec.baire import (
    build_nets,
    extendable_oracle,
    fill_hole,
    greedy_step,
    hole_analysis,
    net_side,
    private_set_audit,
    run_baire,
)
from eqdec.errors import ArgumentError
from eqdec.lattice import CellSet, Rect, boundary
from eqdec.matching import Matching
from eqdec.suites import _bits_window
from eqdec.torus import AxisSquare, Bitmap, Disk, TorusPoint, offsets_row_major, sample_free_system
from eqdec.window import extract_window


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
    rng = np.random.default_rng(17)
    m_cap = 1
    offsets = offsets_row_major(m_cap, 2)
    checked = 0
    trials = 0
    while checked < 1000 and trials < 20_000:
        trials += 1
        horizon = 2
        side = 2 * (horizon + m_cap) + 1
        a = rng.random((side, side)) < 0.18
        b = rng.random((side, side)) < 0.18
        centre = (side // 2, side // 2)
        a[centre] = True
        if int(a.sum() + b.sum()) > 14:
            continue
        R = Rect((0, 0), a.shape)
        win = _bits_window(CellSet(R, a), CellSet(R, b), m_cap)
        m = Matching(win.window, m_cap)
        cands = [
            tuple(int(c + o) for c, o in zip(centre, off))
            for off in offsets
            if b[tuple(int(c + o) for c, o in zip(centre, off))]
        ]
        if not cands:
            continue
        y = cands[int(rng.integers(0, len(cands)))]
        got = extendable_oracle(m, win, centre, y, horizon)
        want = _exhaustive_extendable(a, b, centre, y, horizon, m_cap, offsets)
        assert got == want, (a.nonzero(), b.nonzero(), centre, y)
        checked += 1
    assert checked == 1000


def _exhaustive_extendable(a, b, x, y, horizon, m_cap, offsets):
    """Brute force: try all matchings extending {(x, y)} and check coverage."""
    sides = a.shape

    def ball(c):
        return max(abs(c[0] - x[0]), abs(c[1] - x[1])) <= horizon

    a_cells = [tuple(c) for c in np.argwhere(a) if tuple(c) != x]
    req_a = [c for c in a_cells if ball(c)]
    req_b = [tuple(c) for c in np.argwhere(b) if ball(tuple(c)) and tuple(c) != y]
    edges = []
    for c in a_cells:
        for off in offsets:
            nb = tuple(int(q + o) for q, o in zip(c, off))
            if all(0 <= p < s for p, s in zip(nb, sides)) and b[nb] and nb != y:
                edges.append((c, nb))

    def rec(i, used_a, used_b):
        if set(req_a) <= used_a and set(req_b) <= used_b:
            return True
        if i == len(edges):
            return False
        if rec(i + 1, used_a, used_b):
            return True
        p, q = edges[i]
        if p not in used_a and q not in used_b:
            return rec(i + 1, used_a | {p}, used_b | {q})
        return False

    return rec(0, set(), set())


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


def test_hole_analysis_single_cell():
    X = CellSet.from_cells([(0, 0)])
    rep = hole_analysis(X, m_cap=4, r_i=8)
    assert rep.reference_point == (0, 0)
    assert len(rep.holes) == 1 and rep.holes[0].infinite
    assert rep.x1.size() == 4  # one half-M grid cube (side 2)
    assert rep.decomposition_ok


def _ring_instance(m_cap=4):
    # thick ring around an empty 3M x 3M region; thickness > 2M seals the
    # interior against 2M-jumps
    M = m_cap
    inner = 3 * M
    thick = 2 * M + 1
    cells = []
    for x in range(-thick, inner + thick):
        for y in range(-thick, inner + thick):
            if 0 <= x < inner and 0 <= y < inner:
                continue
            cells.append((x, y))
    return CellSet.from_cells(cells)


def test_hole_analysis_ring():
    X = _ring_instance(4)
    rep = hole_analysis(X, m_cap=4, r_i=4)
    finite = rep.finite_holes
    assert len(finite) == 1
    assert any(h.infinite for h in rep.holes)
    assert rep.decomposition_ok
    # boundary decomposition: reversed hull boundary edges all land in holes
    assert sum(h.boundary_into_hull for h in rep.holes) == rep.hull_perimeter


def test_hole_analysis_requires_connected():
    X = CellSet.from_cells([(0, 0), (50, 50)])
    with pytest.raises(ArgumentError):
        hole_analysis(X, m_cap=4, r_i=8)


def test_fill_hole_ring():
    m_cap = 4
    X = _ring_instance(m_cap)
    full = CellSet(Rect((-10, -10), (60, 60)), np.ones((60, 60), dtype=bool))
    win = _bits_window(full, full, m_cap)
    rep = hole_analysis(X, m_cap=m_cap, r_i=10_000)  # huge richness floor
    hole = rep.finite_holes[0]
    assert not hole.rich
    x_new, claims = fill_hole(X, rep, hole, win)
    assert all(claims.values()), claims
    rep2 = hole_analysis(x_new, m_cap=m_cap, r_i=10_000)
    assert len(rep2.finite_holes) == 0


def test_fill_hole_rejects_rich_and_infinite():
    m_cap = 4
    X = _ring_instance(m_cap)
    full = CellSet(Rect((-10, -10), (60, 60)), np.ones((60, 60), dtype=bool))
    win = _bits_window(full, full, m_cap)
    rep = hole_analysis(X, m_cap=m_cap, r_i=m_cap)  # low floor: everything rich
    hole = rep.finite_holes[0]
    assert hole.rich
    with pytest.raises(ArgumentError):
        fill_hole(X, rep, hole, win)
    inf = [h for h in rep.holes if h.infinite][0]
    with pytest.raises(ArgumentError):
        fill_hole(X, rep, inf, win)


def test_fill_hole_reference_point_random():
    rng = np.random.default_rng(31)
    m_cap = 2
    done = 0
    while done < 40:
        bits = rng.random((16, 16)) < 0.55
        X = CellSet(Rect((0, 0), (16, 16)), bits)
        if X.size() == 0:
            continue
        from eqdec.lattice import ell_components

        comp = ell_components(X, 2 * m_cap)[0]
        if comp.size() < 6:
            continue
        rep = hole_analysis(CellSet.from_cells(comp.cells()), m_cap, r_i=100 * m_cap)
        fillable = [h for h in rep.finite_holes if not h.rich]
        if not fillable:
            done += 1
            continue
        full = CellSet(Rect((-20, -20), (60, 60)), np.ones((60, 60), dtype=bool))
        win = _bits_window(full, full, m_cap)
        x_new, claims = fill_hole(CellSet.from_cells(comp.cells()), rep, fillable[0], win)
        assert claims["same_reference"]
        assert claims["hole_gone"]
        done += 1


def test_private_set_audit():
    X = _ring_instance(4)
    rep = hole_analysis(X, m_cap=4, r_i=4)
    bnd = boundary(rep.x1)
    # one net edge near the hole, one far away
    near = ((4, 4), (5, 5))
    far = ((90, 90), (91, 91))
    out = private_set_audit(bnd, [near, far], r_j=16, m_cap=4)
    assert out["disjoint"]
    near_entry = out["edges"][0]
    assert near_entry["size"] >= 16 / (4 * 4)  # at least r/(4M) shells hit
    assert all(s >= 1 for s in near_entry["shells"][: max(1, 16 // (4 * 4))])
    assert out["edges"][1]["size"] == 0
    empty = private_set_audit(bnd, [], r_j=16, m_cap=4)
    assert empty["edges"] == [] and empty["disjoint"]


def test_greedy_step_empty_net_is_noop():
    win = _window(128)
    from eqdec.baire import SparseNetLadder
    from eqdec.window import build_sparse_coloring

    ladder = SparseNetLadder(
        radii=(8,),
        m_cap=8,
        sides=("B",),
        nets=(CellSet.empty(win.window),),
        ball_radii=(0.001,),
        condition_partials=(0.5,),
        condition_bound=0.25,
    )
    coloring = build_sparse_coloring(win.sys, 16)
    m = Matching(win.window, 8)
    out, rep = greedy_step(m, 1, ladder, coloring, 16, win)
    assert out.size() == 0 and rep.added == 0


def test_run_baire_small_end_to_end():
    win = _window(384)
    res = run_baire(win, (8, 24), seed=11, net_cap=6)
    assert all(r.added == r.net_size for r in res.reports)
    assert all(r.sparsity_ok for r in res.reports)
    assert all(r.post_oracle_ok for r in res.reports)
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
