"""Randomized and exhaustive property suites, runnable from the CLI.

Each suite returns (ok, details). The checks pit the package's fast paths
against independent brute-force oracles implemented here.
"""

from __future__ import annotations

import numpy as np

from eqdec.baire import extendable_oracle
from eqdec.errors import ArgumentError
from eqdec.lattice import CellSet, Rect, internal_boundary, isoperimetry_check, perimeter
from eqdec.lebesgue import build_schedule, run_pipeline
from eqdec.matching import (
    Matching,
    _layered_bfs,
    augment_phase,
    augment_to_max,
    greedy_offset_pass,
    hall_deficiency,
)
from eqdec.torus import AxisSquare, Disk, TorusPoint, offsets_row_major, sample_free_system
from eqdec.window import CosetWindow, equivariance_check, extract_window

__all__ = ["SUITES", "run_suite"]


def _bits_window(a: CellSet, b: CellSet, m_cap: int) -> CosetWindow:
    sys = sample_free_system(0, a.rect.d if a.rect.d >= 2 else 2, 2, m_cap)
    return CosetWindow(TorusPoint([0.0] * sys.k), sys, a.rect, a, b)


def suite_isoperimetry(seed: int):
    """Perimeter floor, exhaustively on 3x3 and sampled on 4x4x4 windows."""
    violations = 0
    rect = Rect((0, 0), (3, 3))
    for mask in range(1, 1 << 9):
        bits = np.array([(mask >> i) & 1 for i in range(9)], dtype=bool).reshape(3, 3)
        _, _, ok = isoperimetry_check(CellSet(rect, bits))
        violations += not ok
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x150]))
    rect3 = Rect((0, 0, 0), (4, 4, 4))
    for _ in range(10_000):
        bits = rng.random((4, 4, 4)) < rng.uniform(0.1, 0.9)
        if not bits.any():
            continue
        _, _, ok = isoperimetry_check(CellSet(rect3, bits))
        violations += not ok
    return violations == 0, {"violations": violations}


def suite_internal_perimeter(seed: int, trials: int = 10_000):
    """Internal share of the boundary under the balance-ratio floor."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1B]))
    violations = 0
    worst = np.inf
    for t in range(trials):
        d = 2 if t % 2 == 0 else 3
        base = int(rng.integers(2, 9 if d == 3 else 17))
        sides = tuple(int(s) for s in rng.integers(base, 3 * base + 1, size=d))
        R = Rect((0,) * d, sides)
        rho = R.balance()
        bits = rng.random(R.sides) < rng.uniform(0.05, 0.95)
        if not bits.any():
            continue
        X = CellSet(R, bits)
        pR = internal_boundary(X, R)
        p = perimeter(X)
        vol = R.volume()
        floor = p / (3 * d * rho) * (vol - X.size()) / vol
        worst = min(worst, pR - floor)
        violations += pR < floor - 1e-9
    return violations == 0, {"violations": violations, "worst_margin": worst}


def _bfs_oracle(a_bits, b_bits, a_match, b_match, offsets, m_cap):
    """Uncapped shortest augmenting path length by plain BFS (independent of
    the vectorized search); returns None when no path exists."""
    from collections import deque

    sides = a_bits.shape
    starts = [tuple(c) for c in np.argwhere(a_bits & (a_match < 0))]
    dist = {(c, "A"): 0 for c in starts}
    q = deque((c, "A") for c in starts)
    best = None
    while q:
        cell, part = q.popleft()
        d0 = dist[(cell, part)]
        if best is not None and d0 >= best:
            continue
        if part == "A":
            for off in offsets:
                nb = tuple(c + int(o) for c, o in zip(cell, off))
                if any(p < 0 or p >= s for p, s in zip(nb, sides)):
                    continue
                if not b_bits[nb] or (nb, "B") in dist:
                    continue
                k = a_match[cell]
                if k >= 0 and tuple(c + int(o) for c, o in zip(cell, offsets[k])) == nb:
                    continue  # matched edges go B -> A only
                dist[(nb, "B")] = d0 + 1
                if b_match[nb] < 0:
                    best = d0 + 1 if best is None else min(best, d0 + 1)
                else:
                    q.append((nb, "B"))
        else:
            k = b_match[cell]
            if k < 0:
                continue
            src = tuple(c - int(o) for c, o in zip(cell, offsets[k]))
            if (src, "A") not in dist:
                dist[(src, "A")] = d0 + 1
                q.append((src, "A"))
    return best


def _random_matching(rng, a_bits, b_bits, m_cap):
    m = Matching(Rect((0,) * a_bits.ndim, a_bits.shape), m_cap)
    offsets = offsets_row_major(m_cap, a_bits.ndim)
    cells = np.argwhere(a_bits)
    rng.shuffle(cells)
    for cell in cells:
        if rng.random() < 0.35:
            continue
        cand = []
        for k, off in enumerate(offsets):
            nb = tuple(int(c + o) for c, o in zip(cell, off))
            if any(p < 0 or p >= s for p, s in zip(nb, a_bits.shape)):
                continue
            if b_bits[nb] and m.b_match[nb] < 0:
                cand.append((k, nb))
        if cand:
            k, nb = cand[int(rng.integers(0, len(cand)))]
            m.a_match[tuple(cell)] = k
            m.b_match[nb] = k
    return m


def _canonical_max_matching(win: CosetWindow, R: Rect) -> Matching:
    """The canonical maximum matching of the subgraph induced by R.

    Row-major offset-greedy initialization followed by shortest-path
    augmentation, as the square pipeline matches each cube; the result
    depends only on the induced content, not on where R sits.
    """
    m_cap = win.sys.m_cap
    sl = R.slices_in(win.window)
    a_bits, b_bits = win.a_bits.bits[sl], win.b_bits.bits[sl]
    m = Matching(R, m_cap)
    greedy_offset_pass(a_bits, b_bits, m.a_match, m.b_match, m_cap)
    augment_to_max(a_bits, b_bits, m.a_match, m.b_match, m_cap)
    m.validate(a_bits, b_bits)
    return m


def suite_short_augmenting(seed: int, trials: int = 1000):
    """Length-capped search and augmentation against an uncapped BFS oracle:
    per cap, the BFS depth is the oracle's length if within the cap, else -1,
    and the phase flips exactly then, growing a valid matching by its flips."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5A]))
    m_cap = 2
    offsets = offsets_row_major(m_cap, 2)
    bad = 0
    for _ in range(trials):
        shape = (10, 10)
        a_bits = rng.random(shape) < 0.3
        b_bits = rng.random(shape) < 0.3
        m = _random_matching(rng, a_bits, b_bits, m_cap)
        oracle = _bfs_oracle(a_bits, b_bits, m.a_match, m.b_match, offsets, m_cap)
        agree = True
        for cap in (1, 3, 7, 10):
            want = oracle if oracle is not None and oracle <= cap else -1
            bfs = _layered_bfs(a_bits, b_bits, m.a_match, m.b_match, offsets, m_cap, cap)
            grown = m.copy()
            flips = augment_phase(a_bits, b_bits, grown.a_match, grown.b_match, m_cap, cap)
            try:
                grown.validate(a_bits, b_bits)
            except ArgumentError:
                agree = False
            agree &= bfs.depth == want and (flips > 0) == (want > 0)
            agree &= grown.size() == m.size() + flips
        bad += not agree
    return bad == 0, {"disagreements": bad}


def _edges(a_bits, b_bits, offsets):
    """Every (A-cell, B-cell) translation edge inside the grid, row-major."""
    cells = np.argwhere(a_bits)[:, None, :]
    nbs = cells + np.asarray(offsets)[None]
    keep = ((nbs >= 0) & (nbs < a_bits.shape)).all(axis=2)
    keep[keep] = b_bits[tuple(nbs[keep].T)]
    pairs = np.concatenate([np.broadcast_to(cells, nbs.shape), nbs], axis=2)[keep].tolist()
    return [(tuple(p[: a_bits.ndim]), tuple(p[a_bits.ndim :])) for p in pairs]


def _enumerate_feasible(edges, req_a, req_b):
    """Exhaustive search for a matching covering both required sets."""
    req_a, req_b = set(req_a), set(req_b)

    def rec(i, used_a, used_b):
        if req_a <= used_a and req_b <= used_b:
            return True
        if i == len(edges):
            return False
        a, b = edges[i]
        if a not in used_a and b not in used_b and rec(i + 1, used_a | {a}, used_b | {b}):
            return True
        return rec(i + 1, used_a, used_b)

    return rec(0, set(), set())


def suite_hall(seed: int, trials: int = 1000):
    """Coverage feasibility against exhaustive matching enumeration; required
    A-cells may have no edge at all."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA11]))
    m_cap = 1
    offsets = offsets_row_major(m_cap, 2)
    bad = 0
    done = 0
    while done < trials:
        R = Rect((0, 0), (4, 4))
        a_bits = rng.random(R.sides) < 0.25
        b_bits = rng.random(R.sides) < 0.25
        edges = _edges(a_bits, b_bits, offsets)
        if len(edges) > 12:
            continue
        done += 1
        a_cells = [tuple(int(c) for c in p) for p in np.argwhere(a_bits)]
        req_a = [c for c in a_cells if rng.random() < 0.4]
        req_b = [c for c in sorted({e[1] for e in edges}) if rng.random() < 0.4]
        win = _bits_window(CellSet(R, a_bits), CellSet(R, b_bits), m_cap)
        ra = CellSet.from_cells(req_a, R) if req_a else CellSet.empty(R)
        rb = CellSet.from_cells(req_b, R) if req_b else CellSet.empty(R)
        cert = hall_deficiency(win, R, ra.bits, rb.bits)
        truth = _enumerate_feasible(edges, req_a, req_b)
        if truth != (cert is None):
            bad += 1
    return bad == 0, {"disagreements": bad}


def suite_extendable(seed: int, trials: int = 1000):
    """The Baire extendability oracle against exhaustive matching enumeration.

    Each trial draws a sparse 7x7 window, an A-cell x at its centre and a
    B-neighbour y; (x, y) extends the empty matching on the horizon-2 ball
    around x exactly when the other edges can cover every other ball cell.
    Draws are redrawn until the enumerated verdict is the trial's target,
    True and False in turn, so half the trials test an acceptance (unforced,
    about one draw in eleven is extendable).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE7]))
    m_cap, horizon = 1, 2
    offsets = offsets_row_major(m_cap, 2)
    side = 2 * (horizon + m_cap) + 1
    R = Rect((0, 0), (side, side))
    x = (side // 2, side // 2)
    ball = np.zeros(R.sides, dtype=bool)
    ball[m_cap : side - m_cap, m_cap : side - m_cap] = True
    bad = 0
    done = 0
    while done < trials:
        a_bits = rng.random(R.sides) < 0.18
        b_bits = rng.random(R.sides) < 0.18
        a_bits[x] = True
        if int(a_bits.sum() + b_bits.sum()) > 14:
            continue
        edges = _edges(a_bits, b_bits, offsets)
        ys = [q for p, q in edges if p == x]
        if not ys:
            continue
        y = ys[int(rng.integers(0, len(ys)))]
        req_a, req_b = a_bits & ball, b_bits & ball
        req_a[x] = req_b[y] = False
        want = _enumerate_feasible(
            [(p, q) for p, q in edges if p != x and q != y],
            [tuple(int(c) for c in p) for p in np.argwhere(req_a)],
            [tuple(int(c) for c in q) for q in np.argwhere(req_b)],
        )
        if want != (done % 2 == 0):
            continue
        done += 1
        win = _bits_window(CellSet(R, a_bits), CellSet(R, b_bits), m_cap)
        got = extendable_oracle(Matching(R, m_cap), win, x, y, horizon)
        bad += got != want
    return bad == 0, {"disagreements": bad}


def suite_equivariance(
    seed: int,
    window_side: int = 256,
    shifts=((3, -2),),
    ladder=(2, 4, 8, 16),
    levels: int = 1,
):
    """Base-shift commutation of the multiscale pipeline, plus mutant detection.

    The mutant drops the real matching on a random half of the cells, drawn
    once for the window rather than for the content, so any nonzero shift
    moves matched cells into and out of it.
    """
    sys = sample_free_system(seed, 2, 2, 8)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE9]))
    u = TorusPoint(rng.random(2))
    disk = Disk(TorusPoint([0.5, 0.5]), float(np.sqrt(0.15 / np.pi)))
    square = AxisSquare(TorusPoint([0.1, 0.55]), float(np.sqrt(0.15)))
    window = Rect((-window_side // 2,) * 2, (window_side,) * 2)
    drop = rng.random(window.sides) < 0.5

    def make_window(base):
        return extract_window(disk, square, sys, base, window)

    runs = {}  # by base point: the mutant reuses the real runs

    def run(win):
        if win.base not in runs:
            schedule = build_schedule(win, ladder, levels)
            res = run_pipeline(win, schedule, levels)
            radii = [r for r in schedule.seed_radii[: levels + 1] if r is not None]
            runs[win.base] = res.matching.a_match, res.margin_formula + max(radii, default=0)
        return runs[win.base]

    def run_mutant(win):
        a_match, margin = run(win)
        return np.where(drop, -1, a_match), margin

    oks = [equivariance_check(run, make_window, sys, u, shift, window) for shift in shifts]
    detected = not equivariance_check(run_mutant, make_window, sys, u, shifts[0], window)
    return all(oks) and detected, {"shifts_ok": oks, "mutant_detected": detected}


SUITES = {
    "isoperimetry": suite_isoperimetry,
    "internal_perimeter": suite_internal_perimeter,
    "short_augmenting": suite_short_augmenting,
    "hall": suite_hall,
    "extendable": suite_extendable,
    "equivariance": suite_equivariance,
}


def run_suite(name: str, seed: int):
    return SUITES[name](seed)
