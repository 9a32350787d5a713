"""Multi-scale matching pipeline: seed nets, integer Voronoi grid domains,
and the per-level prune / rematch / refine matching sequence with
convergence reporting.

Level 0 builds one matching (``init_m0``); every later level edits it in
place: ``prune_cross_cube`` drops the edges that cross the new cubes,
``rematch_dirty_cubes`` rebuilds the cubes that straddle old Voronoi cells,
and ``_refine_all`` augments the clean cubes. Every canonical maximum
matching from scratch inside a set of boxes comes from ``_match_regions``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from eqdec.errors import ArgumentError
from eqdec.lattice import CellSet, Rect, rect_tree_boxes
from eqdec.matching import (
    Matching,
    _augment_regions,
    greedy_offset_pass,
)
from eqdec.window import CosetWindow, build_sparse_coloring, greedy_sparse_net

__all__ = [
    "GridSchedule",
    "GridDomain",
    "IterationReport",
    "PipelineResult",
    "build_schedule",
    "integer_voronoi",
    "grid_domain",
    "init_m0",
    "prune_cross_cube",
    "rematch_dirty_cubes",
    "run_pipeline",
]


@dataclass(frozen=True)
class GridSchedule:
    """Cube-size ladder plus per-level seed nets.

    ``seed_radii[i]`` is the sparsity radius used for level i's net; None means
    the single-center fallback (the required radius is undefined or does not
    fit the window).
    """

    ladder: tuple
    seed_radii: tuple
    seeds: tuple  # CellSet per executed level
    summability: dict


@dataclass(frozen=True)
class GridDomain:
    """Disjoint aligned cubes inside integer Voronoi cells at one level."""

    level: int
    n_cube: int
    rect: Rect
    seeds: np.ndarray  # (n, d) absolute seed cells, row-major order
    owner: np.ndarray = field(repr=False)  # int32 grid; -1 = tie / no seed
    cube_id: np.ndarray = field(repr=False)  # int32 grid; -1 = uncovered
    cube_lows: np.ndarray = field(repr=False)  # (n_cubes, d) absolute corners
    cube_seed: np.ndarray = field(repr=False)  # (n_cubes,) owning seed index


@dataclass(frozen=True)
class IterationReport:
    level: int
    n_cube: int
    dirty_cubes: int
    total_cubes: int
    changed_prune: int
    changed_rematch: int
    changed_refine: int
    window_volume: int
    unmatched_fraction: float
    cube_discrepancy_max: int
    cube_discrepancy_mean: float
    unmatched_exceeds_discrepancy: int  # cubes where unmatched > D(Q)
    two_sided_cubes: int  # cubes with unmatched cells in both parts


@dataclass
class PipelineResult:
    matching: Matching
    reports: list
    margin_formula: int
    margin_core: int
    schedule: GridSchedule


# ---------------------------------------------------------------------------
# Schedule and domains


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def build_schedule(win: CosetWindow, ladder, levels: int | None = None) -> GridSchedule:
    """Seed nets for every executed level of the ladder.

    Level i wants a net of sparsity ladder[i+2]; when that entry is missing or
    does not fit the window, the net degenerates to the cell nearest the
    window center (one Voronoi cell covering the whole window).
    """
    ladder = tuple(int(n) for n in ladder)
    if not ladder:
        raise ArgumentError("ladder is empty: give at least one cube size")
    if any(not _is_pow2(n) for n in ladder):
        raise ArgumentError("ladder entries must be powers of two")
    if any(a >= b for a, b in zip(ladder, ladder[1:])):
        raise ArgumentError("ladder must be strictly increasing")
    if levels is None:
        levels = len(ladder) - 1
    if not 0 <= levels < len(ladder):
        raise ArgumentError("levels must be non-negative and below the ladder length")
    min_side = min(win.window.sides)
    if ladder[levels] > min_side:
        raise ArgumentError("top cube size exceeds the window")
    radii, seeds = [], []
    colorings = {}
    for i in range(levels + 1):
        want = ladder[i + 2] if i + 2 < len(ladder) else None
        if want is not None and want < min_side:
            if want not in colorings:
                colorings[want] = build_sparse_coloring(win.sys, want)
            radii.append(want)
            seeds.append(greedy_sparse_net(win, colorings[want], want))
        else:
            radii.append(None)
            center = tuple(l + s // 2 for l, s in zip(win.window.low, win.window.sides))
            seeds.append(CellSet.from_cells([center], win.window))
    terms = [ladder[i] ** 2 / ladder[i + 1] for i in range(len(ladder) - 1)]
    summability = {
        "terms": terms,
        "partials": np.cumsum(terms).tolist(),
        "tail_decreasing": len(terms) >= 3 and terms[-3] > terms[-2] > terms[-1],
    }
    return GridSchedule(
        ladder=ladder, seed_radii=tuple(radii), seeds=tuple(seeds), summability=summability
    )


def integer_voronoi(S: CellSet, window: Rect, cover_radius: int | None = None):
    """Per-cell nearest seed under sup-norm; ties owned by nobody.

    Returns (owner, seeds): owner is an int32 grid of seed indices (-1 for a
    tie or when no seed is within reach), seeds the row-major seed list.
    ``cover_radius`` limits each seed's influence patch; it must be at least
    the true covering radius of S (checked).
    """
    seeds = S.cells()
    if len(seeds) == 0:
        raise ArgumentError("seed set must be non-empty")
    sides = window.sides
    low = np.array(window.low)
    best = np.full(sides, np.iinfo(np.int32).max, dtype=np.int32)
    owner = np.full(sides, -1, dtype=np.int32)
    tie = np.zeros(sides, dtype=bool)
    for si, s in enumerate(seeds):
        rel = s - low
        if cover_radius is None:
            sl = tuple(slice(0, n) for n in sides)
        else:
            sl = tuple(
                slice(max(0, c - cover_radius), min(n, c + cover_radius + 1))
                for c, n in zip(rel, sides)
            )
        axes = []
        for j, spec in enumerate(sl):
            ax = np.abs(np.arange(spec.start, spec.stop) - rel[j]).astype(np.int32)
            shape = [1] * window.d
            shape[j] = len(ax)
            axes.append(ax.reshape(shape))
        dist = axes[0]
        for ax in axes[1:]:
            dist = np.maximum(dist, ax)
        cur_best = best[sl]
        lt = dist < cur_best
        eq = dist == cur_best
        best[sl] = np.where(lt, dist, cur_best)
        ow = owner[sl]
        owner[sl] = np.where(lt, np.int32(si), ow)
        t = tie[sl]
        tie[sl] = (t & ~lt) | eq
    if cover_radius is not None and int(best.max()) > cover_radius:
        raise ArgumentError("cover_radius smaller than the true covering radius")
    owner = owner.copy()
    owner[tie] = -1
    return owner, seeds


def _cell_boxes(owner, n):
    """Each label 0..n-1's bounding box in ``owner`` (-1: no label) as (n, d)
    arrays lo, hi (exclusive), lo = hi = 0 when absent. Read off the row-major
    runs of one label, cut at line ends too, so a run varies its last index only."""
    flat = owner.reshape(-1)
    cut = np.r_[True, flat[1:] != flat[:-1]]
    cut[:: owner.shape[-1]] = True
    starts = np.flatnonzero(cut)
    runs = np.stack([starts, np.r_[starts[1:], flat.size] - 1])[:, flat[starts] >= 0]
    first, last = (np.unravel_index(r, owner.shape) for r in runs)
    label = flat[runs[0]]
    lo = np.full((n, owner.ndim), flat.size, dtype=np.int64)
    hi = np.zeros((n, owner.ndim), dtype=np.int64)
    for j in range(owner.ndim):
        np.minimum.at(lo[:, j], label, first[j])
        np.maximum.at(hi[:, j], label, last[j] + 1)
    lo[hi[:, 0] == 0] = 0
    return lo, hi


def grid_domain(S: CellSet, n_cube: int, voronoi, window: Rect, level: int = 0) -> GridDomain:
    """All n_cube-cubes aligned to their seed's grid and fully inside its cell.

    Each seed scans only the bounding box of its Voronoi cell, so the cost is
    the sum of the cells' bounding-box volumes, not seeds x window.
    """
    if not _is_pow2(n_cube):
        raise ArgumentError("cube size must be a power of two")
    owner, seeds = voronoi
    low = np.array(window.low)
    cube_id = np.full(window.sides, -1, dtype=np.int32)
    lows, seed_of = [], []
    next_id = 0
    lo, hi = _cell_boxes(owner, len(seeds))
    start = lo + (seeds - low - lo) % n_cube
    count = (hi - start) // n_cube  # never positive on an absent cell's empty box
    for si in np.flatnonzero(np.all(count > 0, axis=1)):
        region = tuple(slice(int(a), int(a + c * n_cube)) for a, c in zip(start[si], count[si]))
        sub = owner[region] == si
        shape = []
        for c in count[si]:
            shape.extend([int(c), n_cube])
        blocks = sub.reshape(shape)
        # reduce the per-cube axes: all cells of the cube must belong to si
        for ax in range(window.d - 1, -1, -1):
            blocks = blocks.all(axis=2 * ax + 1)
        accepted = np.argwhere(blocks)
        if len(accepted) == 0:
            continue
        ids = np.full(blocks.shape, -1, dtype=np.int32)
        ids[tuple(accepted.T)] = np.arange(next_id, next_id + len(accepted), dtype=np.int32)
        expanded = ids
        for ax in range(window.d):
            expanded = np.repeat(expanded, n_cube, axis=ax)
        target = cube_id[region]
        cube_id[region] = np.where(expanded >= 0, expanded, target)
        cube_lo = accepted * n_cube + start[si] + low
        lows.append(cube_lo)
        seed_of.append(np.full(len(accepted), si, dtype=np.int32))
        next_id += len(accepted)
    cube_lows = np.concatenate(lows) if lows else np.zeros((0, window.d), dtype=np.int64)
    cube_seed = np.concatenate(seed_of) if seed_of else np.zeros(0, dtype=np.int32)
    return GridDomain(
        level=level,
        n_cube=n_cube,
        rect=window,
        seeds=seeds,
        owner=owner,
        cube_id=cube_id,
        cube_lows=cube_lows,
        cube_seed=cube_seed,
    )


# ---------------------------------------------------------------------------
# Matching phases


def _paint(shape, lows, sides) -> np.ndarray:
    """Region-id grid of disjoint boxes, given as (n, d) arrays of low
    corners (array coordinates) and sides: box i's cells hold i, all others -1."""
    region = np.full(shape, -1, dtype=np.int32)
    strides = np.array([int(np.prod(shape[j + 1 :])) for j in range(len(shape))])
    offsets = np.indices(sides.max(axis=0)).reshape(len(shape), -1)
    inside = (offsets.T[None] < sides[:, None]).all(axis=2)
    flat = (lows @ strides)[:, None] + strides @ offsets
    ids = np.repeat(np.arange(len(lows), dtype=np.int32), inside.sum(axis=1))
    region.flat[flat[inside]] = ids
    return region


def _cube_boxes(dom: GridDomain, window: Rect):
    """The low corners, in window-array coordinates, and the sides of every
    cube of a domain, as two (n, d) arrays."""
    lows = dom.cube_lows - np.array(window.low)
    return lows, np.full_like(lows, dom.n_cube)


def _match_regions(win: CosetWindow, m: Matching, lows, sides) -> None:
    """Canonical maximum matching from scratch inside disjoint boxes, in place.

    The boxes are given by (n, d) arrays of low corners (array coordinates)
    and sides. Their cells are unmatched first. Then one batched greedy pass,
    and batched augmentation to maximum in every box that still has a free
    A-cell and a free B-cell. Boxes are disjoint, so each ends as if it had
    been matched alone.
    """
    if len(lows) == 0:
        return
    region = _paint(win.window.sides, lows, sides)
    inside = region >= 0
    m.a_match[inside] = -1
    m.b_match[inside] = -1
    a_bits, b_bits = win.a_bits.bits, win.b_bits.bits
    greedy_offset_pass(a_bits, b_bits, m.a_match, m.b_match, m.m_cap, region_id=region)
    # not redundant: without it, packing boxes the pass completed doubled square_fine's solve
    ids = region.ravel()
    valid = inside.ravel()
    free_a = a_bits.ravel() & (m.a_match.ravel() < 0) & valid
    free_b = b_bits.ravel() & (m.b_match.ravel() < 0) & valid
    ua = np.bincount(ids[free_a], minlength=len(lows))
    ub = np.bincount(ids[free_b], minlength=len(lows))
    keep = (ua > 0) & (ub > 0)
    _augment_regions(a_bits, b_bits, m.a_match, m.b_match, m.m_cap, lows[keep], sides[keep])


def init_m0(win: CosetWindow, dom: GridDomain) -> Matching:
    """A new matching, canonical and maximum inside every level-0 cube."""
    m = Matching(win.window, win.sys.m_cap)
    _match_regions(win, m, *_cube_boxes(dom, win.window))
    return m


def _crossing_edges(m: Matching, dom: GridDomain):
    """The A-cells and B-cells, as (n, d) index arrays, of the edges without
    both endpoints inside one domain cube."""
    a_idx, _, b_idx = m.edges()
    ca = dom.cube_id[tuple(a_idx.T)]
    cb = dom.cube_id[tuple(b_idx.T)]
    cross = (ca < 0) | (ca != cb)
    return a_idx[cross], b_idx[cross]


def prune_cross_cube(m: Matching, dom: GridDomain) -> int:
    """Drop, in place, every edge without both endpoints inside one domain
    cube; return how many were dropped, which is also how many A-cells
    changed."""
    a_idx, b_idx = _crossing_edges(m, dom)
    m.a_match[tuple(a_idx.T)] = -1
    m.b_match[tuple(b_idx.T)] = -1
    return len(a_idx)


def _dirty_cubes(dom: GridDomain, prev: GridDomain) -> np.ndarray:
    """Cube indices with a cell outside the previous domain or spanning
    several previous Voronoi cells."""
    n = len(dom.cube_lows)
    ids = dom.cube_id.ravel()
    valid = ids >= 0
    uncovered = (prev.cube_id.ravel() < 0) & valid
    c_uncov = np.bincount(ids[uncovered], minlength=n)
    # one int32 gather of each grid; owners are int32 and -1 at ties
    cube = ids[valid]
    own = prev.owner.ravel()[valid]
    omin = np.full(n, np.iinfo(np.int32).max, dtype=np.int32)
    omax = np.full(n, -2, dtype=np.int32)
    np.minimum.at(omin, cube, own)
    np.maximum.at(omax, cube, own)
    return np.flatnonzero((c_uncov > 0) | (omin != omax))


def rematch_dirty_cubes(m: Matching, dom: GridDomain, prev: GridDomain, win: CosetWindow):
    """Rebuild the matching from scratch inside every dirty cube, in place;
    return the dirty cube indices, ascending."""
    dirty = _dirty_cubes(dom, prev)
    lows, sides = _cube_boxes(dom, win.window)
    _match_regions(win, m, lows[dirty], sides[dirty])
    return dirty


def _refine_all(
    m: Matching, dom: GridDomain, prev: GridDomain, win: CosetWindow, dirty_ids
) -> None:
    """Align each clean cube's matching with the inherited finer grid, then
    make it maximum by bounded-length augmentation, level by level.

    The clean cubes are all cubes but ``dirty_ids``, the indices that
    ``rematch_dirty_cubes`` returned. Edits ``m`` in place, in the clean
    cubes' cells only, and returns nothing. A clean cube lies inside one
    previous Voronoi cell, so it inherits that seed's n_prev-grid;
    ``rect_tree_boxes`` gives each tree level's node boxes for all clean
    cubes at once. Basic rectangles that are not cubes of the previous
    domain get fresh canonical matchings first, all in one batch
    (``_match_regions``). Then each tree level, fine to coarse, is one batch
    of length-capped augmentation over its nodes in every clean cube: all trees
    share the height log2(N / n_prev), so a level's nodes share one cap.
    Cubes are disjoint, so batching across them leaves each cube as if it
    had been refined alone.
    """
    clean_ids = np.setdiff1d(np.arange(len(dom.cube_lows)), dirty_ids)
    n_prev = prev.n_cube
    win_low = np.array(win.window.low)
    lows = dom.cube_lows[clean_ids]
    origins = prev.seeds[prev.owner[tuple((lows - win_low).T)]]
    h = (dom.n_cube // n_prev).bit_length() - 1

    def boxes(level):
        node_lows, sides = rect_tree_boxes(lows, origins, dom.n_cube, n_prev, level)
        return node_lows - win_low, sides

    basic_lows, basic_sides = boxes(h)
    fresh = (basic_sides != n_prev).any(axis=1)
    _match_regions(win, m, basic_lows[fresh], basic_sides[fresh])
    for level in range(h, 0, -1):
        cap = (1 << (h - level + 1)) * n_prev + n_prev // 2
        _augment_regions(
            win.a_bits.bits, win.b_bits.bits, m.a_match, m.b_match, m.m_cap, *boxes(level - 1), cap
        )


# ---------------------------------------------------------------------------
# Full pipeline


def margin_formula(schedule: GridSchedule, levels: int, m_cap: int) -> int:
    """Accumulated nominal rule radii: each level adds 2 (r_seed + N_i + M)."""
    total = 0
    for i in range(levels + 1):
        r = schedule.seed_radii[i] or 0
        total += 2 * (r + schedule.ladder[i] + m_cap)
    return total


def margin_core(schedule: GridSchedule, levels: int, m_cap: int) -> int:
    """Margin used for convergence metrics: twice the largest structural
    radius plus the matching radius."""
    radii = [r for r in schedule.seed_radii[: levels + 1] if r is not None]
    biggest = max(radii + [schedule.ladder[levels]])
    return 2 * biggest + m_cap


def _no_short_augmenting_path(win: CosetWindow, dom: GridDomain, m: Matching) -> bool:
    """No cube holds an augmenting path of length at most its side: one capped
    augmentation of every cube, on copies, flips nothing."""
    a_match, b_match = m.a_match.copy(), m.b_match.copy()
    lows, sides = _cube_boxes(dom, win.window)
    _augment_regions(
        win.a_bits.bits, win.b_bits.bits, a_match, b_match, m.m_cap, lows, sides, dom.n_cube
    )
    return np.array_equal(a_match, m.a_match) and np.array_equal(b_match, m.b_match)


def run_pipeline(
    win: CosetWindow,
    schedule: GridSchedule,
    levels: int,
    check_invariants: bool = False,
) -> PipelineResult:
    """Run init plus ``levels`` rounds of prune / rematch / refine, all on
    one matching edited in place.

    Deterministic for fixed inputs. Reports carry per-phase changed-cell
    counts, per-cube discrepancy statistics and the unmatched fraction on the
    untainted core.
    """
    if levels + 1 > len(schedule.seeds):
        raise ArgumentError("schedule does not cover the requested levels")
    m_cap = win.sys.m_cap
    mcore = margin_core(schedule, levels, m_cap)
    core = win.core_rect(mcore)  # raises when the window is too small
    total_a_core = int(win.a_bits.bits[core.slices_in(win.window)].sum())
    volume = win.window.volume()

    reports: list[IterationReport] = []
    for i in range(levels + 1):
        vor = integer_voronoi(schedule.seeds[i], win.window, cover_radius=schedule.seed_radii[i])
        dom = grid_domain(schedule.seeds[i], schedule.ladder[i], vor, win.window, level=i)
        if i == 0:
            m = init_m0(win, dom)
            dirty, changed = [], (0, 0, 0)
        else:
            pruned = prune_cross_cube(m, dom)
            snap = m.a_match.copy()
            dirty = rematch_dirty_cubes(m, dom, prev, win)
            is_dirty = np.zeros(len(dom.cube_lows), dtype=bool)
            is_dirty[dirty] = True
            _refine_all(m, dom, prev, win, dirty)
            # rematch edits only dirty cubes, refine only clean ones, and no
            # uncovered cell is matched after the prune
            per_cube = np.bincount(dom.cube_id[snap != m.a_match], minlength=len(is_dirty))
            rematched = int(per_cube[is_dirty].sum())
            changed = (pruned, rematched, int(per_cube.sum()) - rematched)
        reports.append(_report(win, dom, m, i, len(dirty), *changed, core, total_a_core, volume))
        if check_invariants:
            m.validate(win.a_bits.bits, win.b_bits.bits)
            if len(_crossing_edges(m, dom)[0]):
                raise AssertionError(f"matching edge escapes a level-{i} cube")
            if i > 0 and not _no_short_augmenting_path(win, dom, m):
                raise AssertionError(f"augmenting path of length <= cube side at level {i}")
        prev = dom

    return PipelineResult(
        matching=m,
        reports=reports,
        margin_formula=margin_formula(schedule, levels, m_cap),
        margin_core=mcore,
        schedule=schedule,
    )


def _report(win, dom, m, level, dirty, cp, cr, cf, core, total_a_core, volume):
    """One level's report: the changed-cell counts given, per-cube
    (A, B)-discrepancies and unmatched structure, and the core's unmatched
    fraction."""
    ids = dom.cube_id.ravel()
    valid = ids >= 0
    n = len(dom.cube_lows)
    a = win.a_bits.bits.ravel() & valid
    b = win.b_bits.bits.ravel() & valid
    ua = np.bincount(ids[a & (m.a_match.ravel() < 0)], minlength=n)
    ub = np.bincount(ids[b & (m.b_match.ravel() < 0)], minlength=n)
    disc = np.abs(np.bincount(ids[a], minlength=n) - np.bincount(ids[b], minlength=n))
    csl = core.slices_in(win.window)
    unmatched_core = int((win.a_bits.bits[csl] & (m.a_match[csl] < 0)).sum())
    return IterationReport(
        level=level,
        n_cube=dom.n_cube,
        dirty_cubes=dirty,
        total_cubes=n,
        changed_prune=cp,
        changed_rematch=cr,
        changed_refine=cf,
        window_volume=volume,
        unmatched_fraction=unmatched_core / max(total_a_core, 1),
        cube_discrepancy_max=int(disc.max()) if n else 0,
        cube_discrepancy_mean=float(disc.mean()) if n else 0.0,
        unmatched_exceeds_discrepancy=int(((ua + ub) > disc).sum()),
        two_sided_cubes=int(((ua > 0) & (ub > 0)).sum()),
    )
