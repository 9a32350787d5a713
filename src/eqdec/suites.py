"""Randomized and exhaustive property suites, runnable from the CLI.

Each suite returns (ok, details). The checks pit the package's fast paths
against independent brute-force oracles implemented here.
"""

from __future__ import annotations

import numpy as np

from eqdec.errors import ArgumentError
from eqdec.lattice import CellSet, Rect, internal_boundary, isoperimetry_check, perimeter
from eqdec.matching import (
    Matching,
    _layered_bfs,
    _local_bits,
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
    cells = rect.cells()
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
    a_bits, b_bits = _local_bits(win, R)
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


def _enumerate_feasible(edges, req_a, req_b):
    """Exhaustive search for a matching covering both required sets."""
    req_a, req_b = set(req_a), set(req_b)

    def rec(i, used_a, used_b, chosen):
        if i == len(edges):
            return req_a <= {e[0] for e in chosen} and req_b <= {e[1] for e in chosen}
        a, b = edges[i]
        if rec(i + 1, used_a, used_b, chosen):
            return True
        if a not in used_a and b not in used_b:
            return rec(i + 1, used_a | {a}, used_b | {b}, chosen + [edges[i]])
        return False

    return rec(0, set(), set(), [])


def suite_hall(seed: int, trials: int = 1000):
    """Coverage feasibility against exhaustive matching enumeration."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA11]))
    m_cap = 1
    offsets = offsets_row_major(m_cap, 2)
    bad = 0
    done = 0
    while done < trials:
        R = Rect((0, 0), (4, 4))
        a_bits = rng.random(R.sides) < 0.25
        b_bits = rng.random(R.sides) < 0.25
        edges = []
        for cell in np.argwhere(a_bits):
            for off in offsets:
                nb = tuple(int(c + o) for c, o in zip(cell, off))
                if all(0 <= p < s for p, s in zip(nb, R.sides)) and b_bits[nb]:
                    edges.append((tuple(int(c) for c in cell), nb))
        if len(edges) > 12:
            continue
        done += 1
        a_cells = sorted({e[0] for e in edges})
        b_cells = sorted({e[1] for e in edges})
        req_a = [c for c in a_cells if rng.random() < 0.6]
        req_b = [c for c in b_cells if rng.random() < 0.6]
        win = _bits_window(CellSet(R, a_bits), CellSet(R, b_bits), m_cap)
        ra = CellSet.from_cells(req_a, R) if req_a else CellSet.empty(R)
        rb = CellSet.from_cells(req_b, R) if req_b else CellSet.empty(R)
        cert = hall_deficiency(win, R, ra, rb)
        truth = _enumerate_feasible(edges, req_a, req_b)
        if truth != (cert is None):
            bad += 1
    return bad == 0, {"disagreements": bad}


def suite_equivariance(
    seed: int,
    window_side: int = 256,
    shifts=((3, -2),),
    ladder=(2, 4, 8, 16),
    levels: int = 1,
    check_mutant: bool = True,
):
    """Base-shift commutation of the multiscale pipeline, plus mutant detection."""
    from eqdec.lebesgue import build_schedule, run_pipeline

    sys = sample_free_system(seed, 2, 2, 8)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE9]))
    u = TorusPoint(rng.random(2))
    disk = Disk(TorusPoint([0.5, 0.5]), float(np.sqrt(0.15 / np.pi)))
    square = AxisSquare(TorusPoint([0.1, 0.55]), float(np.sqrt(0.15)))
    window = Rect((-window_side // 2,) * 2, (window_side,) * 2)

    def make_window(base):
        return extract_window(disk, square, sys, base, window)

    def runner(mutant):
        def run(win):
            schedule = build_schedule(win, ladder, levels)
            res = run_pipeline(win, schedule, levels, mutant=mutant)
            radii = [r for r in schedule.seed_radii[: levels + 1] if r is not None]
            return res.matching.a_match, res.margin_formula + max(radii, default=0)

        return run

    oks = [
        equivariance_check(runner(False), make_window, sys, u, shift, window)
        for shift in shifts
    ]
    details = {"shifts_ok": oks}
    ok = all(oks)
    if check_mutant:
        detected = not equivariance_check(
            runner(True), make_window, sys, u, shifts[0], window
        )
        details["mutant_detected"] = detected
        ok = ok and detected
    return ok, details


SUITES = {
    "isoperimetry": suite_isoperimetry,
    "internal_perimeter": suite_internal_perimeter,
    "short_augmenting": suite_short_augmenting,
    "hall": suite_hall,
    "equivariance": suite_equivariance,
}


def run_suite(name: str, seed: int):
    return SUITES[name](seed)
