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
    _tiles,
    cover_side,
    hall_deficiency,
    hierarchy_augment,
    ladder_max_matching,
)
from eqdec.torus import offsets_row_major, torus_delta
from eqdec.window import CosetWindow, SparseColoring, _min_translation_distance

__all__ = [
    "SparseNetLadder",
    "build_nets",
    "extendable_oracle",
    "greedy_step",
    "run_baire",
    "BaireResult",
    "BaireLevelReport",
]

# Side of the aligned cubes that bound the warm start's matching: no edge of
# it and no augmenting sweep behind it reaches past one tile. The cap cannot
# change the output, since cover_side's verdict does not depend on its warm
# seed; it only trims the window-wide sweeps that each flip a path or two.
# Swept with the forest sweeps in place, at ladder bases 32 to 256: 256 was
# the fastest of 128, 256 and 512 on the deep benchmark Baire workload and
# the 1536² acceptance run; 128 was faster on the shallow workload only.
WARM_TILE = 256


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
    edge. The ball radius is the largest that makes any single ball
    automatically sparse.
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
    coords = win.torus_coords()
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
        interior = np.zeros(win.window.sides, dtype=bool)
        if all(s > 2 * margin for s in win.window.sides):
            interior[tuple(slice(margin, s - margin) for s in win.window.sides)] = True
        part_idx = np.argwhere(part & interior)
        part_coords = coords[tuple(part_idx.T)]
        kept: list[np.ndarray] = []
        for t in range(candidate_cap):
            if len(kept) >= net_cap or len(part_idx) == 0:
                break
            y = (y0 + t * alpha) % 1.0
            near = torus_delta(part_coords, y).max(axis=-1) <= eps
            for c in part_idx[near]:
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


# ---------------------------------------------------------------------------
# Extendability oracle


class _Covering:
    """One-sided coverage state: required left cells matched into right cells.

    Each question below works on copies of the two match grids and costs at
    most one single-root forest sweep (full cover) or one ``hierarchy_augment``
    of the copy (deficient cover).
    """

    def __init__(self, left_req, right_avail, m_cap, warm=None):
        self.left_req = left_req
        self.right_avail = right_avail
        self.m_cap = m_cap
        self.ok, self.lmatch, self.rmatch, _ = cover_side(
            left_req, right_avail, m_cap, warm=warm
        )

    def feasible_without_right(self, cell, offsets) -> bool:
        """Feasibility after removing one right-side cell: with a full cover, one
        sweep from the freed partner flips a path exactly when one exists."""
        if not self.ok:
            return False  # shrinking availability cannot help
        k = int(self.rmatch[cell])
        if k < 0:
            return True
        left = tuple(int(c - o) for c, o in zip(cell, offsets[k]))
        lm, rm = self.lmatch.copy(), self.rmatch.copy()
        lm[left] = -1
        rm[cell] = -1
        avail = self.right_avail.copy()
        avail[cell] = False
        labels = np.empty((2,) + lm.shape, dtype=np.int32)
        return _forest_sweep(self.left_req, avail, lm, rm, self.m_cap, labels) > 0

    def feasible_without_left(self, cell, offsets) -> bool:
        """Feasibility after dropping one cell from the required left set."""
        if self.ok:
            return True  # dropping a requirement only frees capacity
        lm, rm = self.lmatch.copy(), self.rmatch.copy()
        k = int(self.lmatch[cell])
        if k >= 0:
            partner = tuple(int(c + o) for c, o in zip(cell, offsets[k]))
            lm[cell] = -1
            rm[partner] = -1
        req = self.left_req.copy()
        req[cell] = False
        hierarchy_augment(req, self.right_avail, lm, rm, self.m_cap)
        return not (req & (lm < 0)).any()


class _OracleContext:
    """Feasibility state shared across candidate partners of one net cell.

    A candidate check then costs one single-root forest sweep on copies of
    the net cell's side covering, and nothing on the other side while its
    covering is full, instead of two full coverage matchings. ``warm_global``
    optionally seeds both coverings from a matching of the free cells (the
    tile-wise one of ``_GlobalCover``); any seed gives the same verdicts,
    because cover_side's verdict does not depend on it.
    """

    def __init__(
        self,
        m: Matching,
        win: CosetWindow,
        anchor,
        anchor_side: str,
        horizon: int,
        warm_global=None,
    ):
        m_cap = win.sys.m_cap
        self.anchor_side = anchor_side
        reach = horizon + m_cap
        low = tuple(int(c) - reach for c in anchor)
        region = Rect(low, (2 * reach + 1,) * win.d)
        if not win.window.contains_rect(region):
            raise ArgumentError("horizon ball exceeds the window")
        self.region = region
        sl = region.slices_in(win.window)
        a_in = (win.a_bits.bits[sl] & (m.a_match[sl] < 0)).copy()
        b_in = (win.b_bits.bits[sl] & (m.b_match[sl] < 0)).copy()
        centre = tuple(int(c) - l for c, l in zip(anchor, low))
        own = a_in if anchor_side == "A" else b_in
        if not own[centre]:
            raise ArgumentError("anchor must be an unmatched cell of its part")
        own[centre] = False  # covered by the candidate edge itself
        ball = np.zeros(region.sides, dtype=bool)
        ball[tuple(slice(reach - horizon, reach + horizon + 1) for _ in range(win.d))] = True
        self.a_in, self.b_in = a_in, b_in
        self.offsets = offsets_row_major(m_cap, win.d)
        req_a, req_b = a_in & ball, b_in & ball
        warm_a = warm_b = None
        if warm_global is not None:
            warm_a = self._warm(warm_global, sl, req_a, b_in, flip=False)
            warm_b = self._warm(warm_global, sl, req_b, a_in, flip=True)
        self.cover_a = _Covering(req_a, b_in, m_cap, warm=warm_a)  # required A into B
        self.cover_b = _Covering(req_b, a_in, m_cap, warm=warm_b)  # required B into A

    def _warm(self, warm_global, sl, left_req, right_avail, flip: bool):
        """Local covering seeded from the free-cell matching ``warm_global``.

        Keeps only edges at required left cells whose partner is available in
        the region; ``flip`` reads the global matching from the B side (left
        vertices are then B-cells and stored offsets reverse sign).
        """
        gam, gbm = warm_global
        src = (gbm if flip else gam)[sl]
        lm = np.full(src.shape, -1, dtype=np.int32)
        rm = np.full(src.shape, -1, dtype=np.int32)
        lcells = np.argwhere(left_req & (src >= 0))
        if len(lcells) == 0:
            return lm, rm
        ks = src[tuple(lcells.T)]
        k_count = len(self.offsets)
        ks_local = (k_count - 1 - ks) if flip else ks
        partners = lcells + self.offsets[ks_local]
        inside = np.all(partners >= 0, axis=1) & np.all(
            partners < np.array(src.shape), axis=1
        )
        lcells, partners, ks_local = lcells[inside], partners[inside], ks_local[inside]
        avail = right_avail[tuple(partners.T)]
        lcells, partners, ks_local = lcells[avail], partners[avail], ks_local[avail]
        lm[tuple(lcells.T)] = ks_local
        rm[tuple(partners.T)] = ks_local
        return lm, rm

    def check(self, partner) -> bool:
        """Partner is a B-cell for an A anchor and vice versa."""
        p = tuple(int(c) - l for c, l in zip(partner, self.region.low))
        if self.anchor_side == "A":
            own, other, free = self.cover_a, self.cover_b, self.b_in
        else:
            own, other, free = self.cover_b, self.cover_a, self.a_in
        if not free[p]:
            return False
        off = self.offsets
        return own.feasible_without_right(p, off) and other.feasible_without_left(p, off)


class _GlobalCover:
    """Tile-wise maximum matching of the cells still free under the current
    sparse matching: maximum inside each aligned ``WARM_TILE`` cube, with no
    edge between cubes. Shared warm start for every oracle context of a
    level."""

    def __init__(self, win: CosetWindow):
        self.win = win
        self.gam = np.full(win.window.sides, -1, dtype=np.int32)
        self.gbm = np.full(win.window.sides, -1, dtype=np.int32)
        self.offsets = offsets_row_major(win.sys.m_cap, win.d)
        self.built = False

    def refresh(self, m: Matching):
        m_cap = self.win.sys.m_cap
        free_a = self.win.a_bits.bits & (m.a_match < 0)
        free_b = self.win.b_bits.bits & (m.b_match < 0)
        # drop stored edges touching cells no longer free
        stale_a = np.argwhere((self.gam >= 0) & ~free_a)
        if len(stale_a):
            ks = self.gam[tuple(stale_a.T)]
            partners = stale_a + self.offsets[ks]
            self.gbm[tuple(partners.T)] = -1
            self.gam[tuple(stale_a.T)] = -1
        stale_b = np.argwhere((self.gbm >= 0) & ~free_b)
        if len(stale_b):
            ks = self.gbm[tuple(stale_b.T)]
            sources = stale_b - self.offsets[ks]
            self.gam[tuple(sources.T)] = -1
            self.gbm[tuple(stale_b.T)] = -1
        complete = hierarchy_augment if self.built else ladder_max_matching
        for sl in _tiles(free_a.shape, WARM_TILE):
            complete(free_a[sl], free_b[sl], self.gam[sl], self.gbm[sl], m_cap)
        self.built = True
        return self.gam, self.gbm


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


def _edge_set_distance(e1, e2) -> int:
    best = None
    for p in e1:
        for q in e2:
            dd = max(abs(a - b) for a, b in zip(p, q))
            best = dd if best is None else min(best, dd)
    return best


def greedy_step(
    m_prev: Matching,
    level: int,
    ladder: SparseNetLadder,
    coloring: SparseColoring,
    horizon: int,
    win: CosetWindow,
    warm_global=None,
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
    coords = win.torus_coords()
    low = np.array(win.window.low)
    other_bits = win.a_bits.bits if side == "B" else win.b_bits.bits
    net_cells = [tuple(int(x) for x in c) for c in net.cells()]

    def color_key(cell):
        rel = tuple(c - l for c, l in zip(cell, low))
        return int(coloring.color_of(coords[rel][None, :])[0])

    net_cells.sort(key=lambda c: (color_key(c), c))
    added = []
    offs = offsets_row_major(m_cap, win.d)
    for cell in net_cells:
        rel = tuple(c - l for c, l in zip(cell, low))
        own_matched = out.b_match if side == "B" else out.a_match
        if own_matched[rel] >= 0:
            continue
        cands = []
        for off in offs:
            partner = tuple(c + int(o) for c, o in zip(cell, off))
            prel = tuple(p - l for p, l in zip(partner, low))
            if any(p < 0 or p >= s for p, s in zip(prel, win.window.sides)):
                continue
            if not other_bits[prel]:
                continue
            other_matched = out.a_match if side == "B" else out.b_match
            if other_matched[prel] >= 0:
                continue
            cands.append(partner)
        cands.sort(key=lambda c: (color_key(c), c))
        ctx = _OracleContext(m_prev, win, cell, side, horizon, warm_global=warm_global)
        for partner in cands:
            if ctx.check(partner):
                a_c = cell if side == "A" else partner
                b_c = partner if side == "A" else cell
                k = _offset_index(a_c, b_c, m_cap, win.d)
                arel = tuple(c - l for c, l in zip(a_c, low))
                brel = tuple(c - l for c, l in zip(b_c, low))
                out.a_match[arel] = k
                out.b_match[brel] = k
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
    # added edges must be (r_i + 2M)-sparse
    sparsity_ok = True
    bound = r_i + 2 * m_cap
    for i in range(len(added)):
        for j in range(i + 1, len(added)):
            if _edge_set_distance(added[i], added[j]) <= bound:
                sparsity_ok = False
    report = BaireLevelReport(
        level=level,
        side=side,
        radius=r_i,
        net_size=len(net_cells),
        added=len(added),
        horizon=horizon,
        sparsity_ok=sparsity_ok,
        condition_value=ladder.condition_partials[level - 1],
        condition_ok=ladder.condition_ok(level),
    )
    return out, report


def _offset_index(a_c, b_c, m_cap, d) -> int:
    box = 2 * m_cap + 1
    k = 0
    for aa, bb in zip(a_c, b_c):
        k = k * box + (bb - aa + m_cap)
    return k


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
    from eqdec.window import build_sparse_coloring

    m_cap = win.sys.m_cap
    horizons = [horizon_factor * int(r) for r in radii]
    margins = [h + m_cap + 1 for h in horizons]
    ladder = build_nets(
        win, radii, seed, margins, candidate_cap=candidate_cap, net_cap=net_cap
    )
    coloring = build_sparse_coloring(win.sys, 2 * m_cap)
    m = Matching(win.window, m_cap)
    margin = max(margins)
    core = win.core_rect(margin)
    csl = core.slices_in(win.window)
    reports = []
    global_cover = _GlobalCover(win)
    for level in range(1, len(radii) + 1):
        warm = global_cover.refresh(m)
        m, rep = greedy_step(
            m, level, ladder, coloring, horizons[level - 1], win, warm_global=warm
        )
        req_a = (m.a_match >= 0) & win.a_bits.bits
        req_b = (m.b_match >= 0) & win.b_bits.bits
        for lv in range(level):
            nb = ladder.nets[lv].bits
            if ladder.sides[lv] == "A":
                req_a |= nb & win.a_bits.bits
            else:
                req_b |= nb & win.b_bits.bits
        mask = np.zeros(win.window.sides, dtype=bool)
        mask[csl] = True
        cert = hall_deficiency(
            win, core, CellSet(win.window, req_a & mask), CellSet(win.window, req_b & mask)
        )
        rep.hall_ok = cert is None
        reports.append(rep)
    return BaireResult(
        matching=m, reports=reports, ladder=ladder, margin=margin, horizon_factor=horizon_factor
    )
