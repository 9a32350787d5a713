"""Greedy sparse-net matching pipeline with horizon-bounded extendability
checks.

Levels alternate parts: odd levels pick B-net cells, even levels A-net cells.
Each net cell is matched to the first candidate partner (by coloring class,
then row-major) whose addition keeps the matching extendable out to the
configured horizon. A net cell with no such partner stops the run with
ExtendabilityError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from eqdec.errors import ArgumentError, ExtendabilityError, PrecisionError
from eqdec.lattice import CellSet, Rect
from eqdec.matching import (
    Matching,
    _forest_sweep,
    cover_side,
    hall_deficiency,
)
from eqdec.torus import offsets_row_major, torus_delta
from eqdec.window import (
    CosetWindow,
    SparseColoring,
    _min_translation_distance,
    build_sparse_coloring,
    coords_at,
)

__all__ = [
    "SparseNetLadder",
    "build_nets",
    "extendable_oracle",
    "greedy_step",
    "run_baire",
    "BaireResult",
    "BaireLevelReport",
]

@dataclass(frozen=True)
class SparseNetLadder:
    """Per-level sparse nets: level i (1-based) holds a B-net when i is odd,
    an A-net when i is even; the union at level i is (r_i + 4M)-sparse."""

    radii: tuple
    m_cap: int
    sides: tuple  # "A" or "B" per level
    nets: tuple  # CellSet per level
    condition_partials: tuple  # partial sums of (M/r_j)^((d-1)/d)
    condition_bound: float

    def condition_ok(self, level: int) -> bool:
        return self.condition_partials[level - 1] <= self.condition_bound


def net_side(level: int) -> str:
    return "B" if level % 2 == 1 else "A"


def build_nets(
    win: CosetWindow,
    radii,
    seed: int,
    placement_margins,
    candidate_cap: int = 64,
    net_cap: int = 16,
) -> SparseNetLadder:
    """Sparse nets from balls around a seeded low-discrepancy center sequence.

    Each level keeps at most ``net_cap`` part-cells, mutually more than
    r_i + 4M apart, all at least ``placement_margins[i]`` from the window
    edge: centre by centre, each ball's cells in row-major order. The ball
    radius is the largest that makes any single ball automatically sparse.
    A level sorts its interior part cells by their first torus coordinate
    once, so each ball is read off a slab of that order (``_ball_members``)
    instead of a scan of every cell.
    """
    radii = tuple(int(r) for r in radii)
    if not radii or min(radii) < 1:
        raise ArgumentError("radii must be non-empty and positive")
    if any(a > b for a, b in zip(radii, radii[1:])):
        raise ArgumentError("radii must be non-decreasing")
    m_cap = win.sys.m_cap
    d = win.d
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x6E657473]))
    alpha = rng.random(win.sys.k)
    y0 = rng.random(win.sys.k)
    nets, sides = [], []
    for level, r in enumerate(radii, start=1):
        side = net_side(level)
        part = win.a_bits.bits if side == "A" else win.b_bits.bits
        sparsity = r + 4 * m_cap
        min_dist = _min_translation_distance(win.sys, sparsity)
        if min_dist < 2.0**-40:
            raise PrecisionError("vectors too dependent for the requested net sparsity")
        eps = min_dist / 2 * (1 - 1e-9)
        margin = int(placement_margins[level - 1])
        sl = tuple(slice(margin, s - margin) for s in win.window.sides)  # empty once margins meet
        inner = part[sl]
        part_idx = np.argwhere(inner) + margin
        part_coords = coords_at(win, part_idx)
        order = np.argsort(part_coords[:, 0], kind="stable")
        first = part_coords[order, 0]
        kept: list[np.ndarray] = []
        for t in range(candidate_cap):
            if len(kept) >= net_cap or len(part_idx) == 0:
                break
            y = (y0 + t * alpha) % 1.0
            for c in part_idx[_ball_members(order, first, part_coords, y, eps)]:
                if len(kept) >= net_cap:
                    break
                if all(np.abs(c - k).max() > sparsity for k in kept):
                    kept.append(c)
        cells = (
            CellSet.from_cells(np.array(kept) + np.array(win.window.low), win.window)
            if kept
            else CellSet.empty(win.window)
        )
        nets.append(cells)
        sides.append(side)
    terms = [(m_cap / r) ** ((d - 1) / d) for r in radii]
    return SparseNetLadder(
        radii=radii,
        m_cap=m_cap,
        sides=tuple(sides),
        nets=tuple(nets),
        condition_partials=tuple(np.cumsum(terms).tolist()),
        condition_bound=4.0 ** (1 - d),
    )


# Slack past ``eps`` of the first-coordinate slab in ``_ball_members``. Torus
# coordinates lie in [0, 1), where ``torus_delta`` and the slab bounds each
# err by a few 2^-53, far below it; the exact test then trims the slab.
_SLAB_SLACK = 1e-12


def _ball_members(order, first, coords, y, eps):
    """Ascending indices of the rows of ``coords`` within torus sup-distance
    ``eps`` of ``y``. ``order`` stable-sorts ``coords[:, 0]`` and ``first``
    is that column in that order, so the candidates are the slab
    |x_0 - y_0| <= eps, widened by ``_SLAB_SLACK`` and taken once per wrap
    (x_0 near y_0 - 1, y_0 and y_0 + 1: disjoint, as eps < 1/4); the exact
    ``torus_delta`` test keeps the members."""
    centres = y[0] + np.array([-1.0, 0.0, 1.0])
    starts = np.searchsorted(first, centres - (eps + _SLAB_SLACK), side="left")
    stops = np.searchsorted(first, centres + (eps + _SLAB_SLACK), side="right")
    idx = order[np.concatenate([np.arange(a, b) for a, b in zip(starts, stops)])]
    idx = idx[torus_delta(coords[idx], y).max(axis=-1) <= eps]
    idx.sort()
    return idx


# ---------------------------------------------------------------------------
# Extendability oracle


class _Covering:
    """One-sided coverage state: required left cells matched into right cells.

    A dropped right cell costs at most one single-root forest sweep on copies
    of the two match grids (full cover). A dropped left cell costs nothing:
    the answer is read off the Hall witness of a deficient cover.
    """

    def __init__(self, left_req, right_avail, m_cap):
        self.left_req = left_req
        self.right_avail = right_avail
        self.m_cap = m_cap
        self.ok, self.lmatch, self.rmatch, self.witness = cover_side(left_req, right_avail, m_cap)

    def feasible_without_right(self, cell) -> bool:
        """Feasibility after removing one right-side cell: with a full cover, one
        sweep from the freed partner flips a path exactly when one exists."""
        if not self.ok:
            return False  # shrinking availability cannot help
        k = int(self.rmatch[cell])
        if k < 0:
            return True
        offset = offsets_row_major(self.m_cap, self.left_req.ndim)[k]
        left = tuple(int(c - o) for c, o in zip(cell, offset))
        lm, rm = self.lmatch.copy(), self.rmatch.copy()
        lm[left] = -1
        rm[cell] = -1
        avail = self.right_avail.copy()
        avail[cell] = False
        labels = np.empty((2,) + lm.shape, dtype=np.int32)
        return _forest_sweep(self.left_req, avail, lm, rm, self.m_cap, labels) > 0

    def feasible_without_left(self, cell) -> bool:
        """Feasibility after dropping one cell from the required left set.

        Dropping a requirement lowers the shortfall by at most one, and by
        one exactly when some maximum matching leaves the cell free. By
        Dulmage-Mendelsohn those are the required cells reachable by
        alternating paths from free ones: the Hall witness. So a deficient
        cover is mended exactly when it is one cell short and the cell lies
        on the witness."""
        if self.ok:
            return True
        return bool(self.witness[cell]) and int((self.left_req & (self.lmatch < 0)).sum()) == 1


class _OracleContext:
    """Feasibility state shared across candidate partners of one net cell.

    A candidate check then costs one single-root forest sweep on copies of
    the net cell's side covering, and a lookup on the other side, instead of
    two full coverage matchings.
    """

    def __init__(self, m: Matching, win: CosetWindow, anchor, anchor_side: str, horizon: int):
        m_cap = win.sys.m_cap
        self.anchor_side = anchor_side
        reach = horizon + m_cap
        low = tuple(int(c) - reach for c in anchor)
        region = Rect(low, (2 * reach + 1,) * win.d)
        if not win.window.contains_rect(region):
            raise ArgumentError("horizon ball exceeds the window")
        self.region = region
        sl = region.slices_in(win.window)
        a_in = win.a_bits.bits[sl] & (m.a_match[sl] < 0)
        b_in = win.b_bits.bits[sl] & (m.b_match[sl] < 0)
        centre = tuple(int(c) - l for c, l in zip(anchor, low))
        own = a_in if anchor_side == "A" else b_in
        if not own[centre]:
            raise ArgumentError("anchor must be an unmatched cell of its part")
        own[centre] = False  # covered by the candidate edge itself
        ball = np.zeros(region.sides, dtype=bool)
        ball[tuple(slice(reach - horizon, reach + horizon + 1) for _ in range(win.d))] = True
        self.a_in, self.b_in = a_in, b_in
        req_a, req_b = a_in & ball, b_in & ball
        self.cover_a = _Covering(req_a, b_in, m_cap)  # required A into B
        self.cover_b = _Covering(req_b, a_in, m_cap)  # required B into A

    def check(self, partner) -> bool:
        """Partner is a B-cell for an A anchor and vice versa."""
        p = tuple(int(c) - l for c, l in zip(partner, self.region.low))
        if self.anchor_side == "A":
            own, other, free = self.cover_a, self.cover_b, self.b_in
        else:
            own, other, free = self.cover_b, self.cover_a, self.a_in
        if not free[p]:
            return False
        return own.feasible_without_right(p) and other.feasible_without_left(p)


class _GlobalCover:
    """Stub with no run path: the benchmark tracer (``perfbench/layertrace.py``)
    still lists ``_GlobalCover.refresh``, the window-wide warm start that the
    Baire covers no longer take, by name. It goes when the tracer names
    spans rather than callables."""

    def refresh(self, m: Matching):
        raise NotImplementedError("_GlobalCover is a stub with no run path")


def _orient(win: CosetWindow, x, y):
    """Normalize an (x, y) pair to (a_cell, b_cell)."""
    x = tuple(int(c) for c in x)
    y = tuple(int(c) for c in y)
    if max(abs(a - b) for a, b in zip(x, y)) > win.sys.m_cap:
        raise ArgumentError("(x, y) is not an edge of the translation graph")
    if win.a_bits.contains(x) and win.b_bits.contains(y):
        return x, y
    if win.b_bits.contains(x) and win.a_bits.contains(y):
        return y, x
    raise ArgumentError("(x, y) must pair an A-cell with a B-cell")


def extendable_oracle(m: Matching, win: CosetWindow, x, y, horizon: int) -> bool:
    """True when m plus the edge (x, y) still covers the horizon ball around x.

    Feasibility means some matching extending m ∪ {(x,y)} covers every A-cell
    and B-cell within ``horizon`` of x; partners may live up to M further out.
    Monotone in the horizon: success at j implies success at any j' <= j.
    The ball is centred on x, so x must be at least horizon + M from the
    window edge. ``eqdec lemma-tests --suite extendable`` checks it against
    exhaustive matching enumeration on horizon-2 balls.
    """
    x = tuple(int(c) for c in x)
    a_cell, b_cell = _orient(win, x, y)
    anchor_side = "A" if x == a_cell else "B"
    anchor = a_cell if anchor_side == "A" else b_cell
    partner = b_cell if anchor_side == "A" else a_cell
    grid = m.a_match if anchor_side == "A" else m.b_match
    if grid[tuple(c - l for c, l in zip(anchor, win.window.low))] >= 0:
        raise ArgumentError("anchor already matched")
    ctx = _OracleContext(m, win, anchor, anchor_side, horizon)
    return ctx.check(partner)


# ---------------------------------------------------------------------------
# Greedy level


@dataclass
class BaireLevelReport:
    level: int
    side: str
    radius: int
    net_size: int
    added: int
    horizon: int
    sparsity_ok: bool
    condition_value: float
    condition_ok: bool
    hall_ok: bool | None = None


def _sparse_edges(edges, bound: int) -> bool:
    """True when every endpoint of each (A-cell, B-cell) edge lies more than
    ``bound`` (sup-norm) from every endpoint of every other edge."""
    if len(edges) < 2:
        return True
    ends = np.asarray(edges, dtype=np.int64)  # (n, 2, d)
    gap = np.abs(ends[:, None, :, None] - ends[None, :, None, :]).max(axis=-1).min(axis=(2, 3))
    return bool((gap[np.triu_indices(len(ends), 1)] > bound).all())


def _colour_order(coloring: SparseColoring, win: CosetWindow, cells):
    """The stable order of the window cells ``cells`` (an (n, d) array,
    relative to the window) by the colour of their torus points: given in
    row-major order, they come out in (colour, row-major) order."""
    return np.argsort(coloring.color_of(coords_at(win, cells)), kind="stable")


def greedy_step(
    m_prev: Matching,
    level: int,
    ladder: SparseNetLadder,
    coloring: SparseColoring,
    horizon: int,
    win: CosetWindow,
):
    """Match every unmatched net cell of the level, minimizing the partner's
    (coloring class, row-major) key among oracle-approved candidates.

    Raises ExtendabilityError when a net cell has no approved partner. The
    message also says when the cell's own-side cover was infeasible before
    any partner was tried, so that every candidate was bound to fail.
    Returns (new matching, level report).
    """
    net = ladder.nets[level - 1]
    side = ladder.sides[level - 1]
    r_i = ladder.radii[level - 1]
    m_cap = win.sys.m_cap
    out = m_prev.copy()
    low = np.array(win.window.low)
    other_bits = win.a_bits.bits if side == "B" else win.b_bits.bits
    own_matched = out.a_match if side == "A" else out.b_match
    other_matched = out.b_match if side == "A" else out.a_match
    offs = offsets_row_major(m_cap, win.d)
    net_cells = np.argwhere(net.bits)  # row-major, relative to the window
    net_cells = net_cells[_colour_order(coloring, win, net_cells)]
    added = []  # (A-cell, B-cell) of each added edge, relative to the window
    for rel in net_cells:
        if own_matched[tuple(rel)] >= 0:
            continue
        # offsets are row-major, so the candidates start in row-major order
        partners = rel + offs
        cands = np.flatnonzero(np.all((partners >= 0) & (partners < win.window.sides), axis=1))
        at = tuple(partners[cands].T)
        cands = cands[other_bits[at] & (other_matched[at] < 0)]
        cands = cands[_colour_order(coloring, win, partners[cands])]
        cell = tuple((rel + low).tolist())
        ctx = _OracleContext(m_prev, win, cell, side, horizon)
        for j in cands.tolist():
            partner = partners[j]
            if ctx.check(tuple((partner + low).tolist())):
                # the grids hold the index of the A-to-B offset; on a B level
                # that is -offs[j], and offs[-1 - j] == -offs[j]
                k = j if side == "A" else len(offs) - 1 - j
                a_c, b_c = (rel, partner) if side == "A" else (partner, rel)
                out.a_match[tuple(a_c)] = k
                out.b_match[tuple(b_c)] = k
                added.append((a_c, b_c))
                break
        else:
            own_cover = ctx.cover_a if side == "A" else ctx.cover_b
            why = "" if own_cover.ok else (
                f": the other {side} cells of its horizon ball cannot all be "
                "matched even before a partner is chosen"
            )
            raise ExtendabilityError(
                f"level {level}: net cell {cell} has no extendable partner" + why
            )
    report = BaireLevelReport(
        level=level,
        side=side,
        radius=r_i,
        net_size=len(net_cells),
        added=len(added),
        horizon=horizon,
        sparsity_ok=_sparse_edges(added, r_i + 2 * m_cap),
        condition_value=ladder.condition_partials[level - 1],
        condition_ok=ladder.condition_ok(level),
    )
    return out, report


# ---------------------------------------------------------------------------
# Full run


@dataclass
class BaireResult:
    matching: Matching
    reports: list
    ladder: SparseNetLadder
    margin: int
    horizon_factor: int


def run_baire(
    win: CosetWindow,
    radii,
    seed: int,
    horizon_factor: int = 2,
    candidate_cap: int = 64,
    net_cap: int = 16,
) -> BaireResult:
    """Build nets, run the greedy levels, and audit feasibility on the core."""
    m_cap = win.sys.m_cap
    horizons = [horizon_factor * int(r) for r in radii]
    margins = [h + m_cap + 1 for h in horizons]
    margin = max(margins, default=0)  # build_nets rejects empty radii
    core = win.core_rect(margin)  # a window too small fails before the nets
    ladder = build_nets(
        win, radii, seed, margins, candidate_cap=candidate_cap, net_cap=net_cap
    )
    coloring = build_sparse_coloring(win.sys, 2 * m_cap)
    m = Matching(win.window, m_cap)
    csl = core.slices_in(win.window)
    reports = []
    for level in range(1, len(radii) + 1):
        m, rep = greedy_step(m, level, ladder, coloring, horizons[level - 1], win)
        req_a = (m.a_match >= 0) & win.a_bits.bits
        req_b = (m.b_match >= 0) & win.b_bits.bits
        for lv in range(level):
            nb = ladder.nets[lv].bits
            if ladder.sides[lv] == "A":
                req_a |= nb & win.a_bits.bits
            else:
                req_b |= nb & win.b_bits.bits
        rep.hall_ok = hall_deficiency(win, core, req_a[csl], req_b[csl]) is None
        reports.append(rep)
    return BaireResult(
        matching=m, reports=reports, ladder=ladder, margin=margin, horizon_factor=horizon_factor
    )
