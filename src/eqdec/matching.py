"""Bipartite translation matchings on lattice windows.

Edges join A-cells to B-cells at sup-norm distance at most M. Matchings are
stored as per-cell offset indices (row-major index into the offset box), with
a consistently maintained inverse map. The canonical maximum matching is the
offset-greedy pass, offsets in row-major order, followed by
shortest-augmenting-path phases with row-major tie-breaks; it is a pure
function of the window content, so translating the content translates the
matching. ``ladder_max_matching`` is not canonical in that sense: its greedy
pass takes offsets nearest-first, which leaves far fewer augmenting paths.
Its callers (the Baire pipeline's coverage checks) read only a feasibility
verdict, and the deficient cells behind a negative one, the same for every
maximum matching; so its order is free, and the square pipeline, whose bytes
are the canonical matching, never calls it.

Two kernels carry most of the work. The greedy pass walks a shrinking list of
free A-cells, as flat indices into grids padded by M, instead of sweeping
whole arrays per offset. The layered BFS records each reached B-cell's
parent (the row-major first A-cell of the previous layer within M), so a
walk-back step is one lookup; it searches the (2M+1)^d patch only when the
parent already lies on a path flipped in the same phase.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.ndimage import minimum_filter

from eqdec.errors import ArgumentError
from eqdec.lattice import CellSet, Rect, dilate
from eqdec.torus import offsets_row_major
from eqdec.window import CosetWindow

__all__ = [
    "Matching",
    "HallCertificate",
    "bounded_augmenting_path",
    "hall_deficiency",
]

# Cube side of the ladder's greedy pass, before rounding up past 2M.
LADDER_BASE = 16


@functools.lru_cache(maxsize=64)
def _offsets_nearest_first(m_cap: int, d: int) -> np.ndarray:
    """Indices into ``offsets_row_major(m_cap, d)``, sup-norm ascending, then
    l1 ascending, then row-major. Cached per (m_cap, d) and read-only."""
    mag = np.abs(offsets_row_major(m_cap, d))
    order = np.lexsort((mag.sum(axis=1), mag.max(axis=1)))  # stable: ties stay row-major
    order.flags.writeable = False
    return order


class Matching:
    """Partial injection from A-cells to B-cells with bounded displacement.

    ``a_match[cell]`` is the row-major index of the displacement to the
    partner (or -1); ``b_match`` holds the same index at the partner cell.
    """

    def __init__(self, rect: Rect, m_cap: int, a_match=None, b_match=None):
        self.rect = rect
        self.m_cap = m_cap
        self.d = rect.d
        self.offsets = offsets_row_major(m_cap, rect.d)
        self.a_match = (
            np.full(rect.sides, -1, dtype=np.int32) if a_match is None else a_match
        )
        self.b_match = (
            np.full(rect.sides, -1, dtype=np.int32) if b_match is None else b_match
        )

    def copy(self) -> "Matching":
        return Matching(self.rect, self.m_cap, self.a_match.copy(), self.b_match.copy())

    def size(self) -> int:
        return int((self.a_match >= 0).sum())

    def edges(self):
        """Matched edges as (a_idx, ks, b_idx): A-cells, offset indices and
        B-cells, in coordinates relative to the rect, row-major by A-cell."""
        a_idx = np.argwhere(self.a_match >= 0)
        ks = self.a_match[tuple(a_idx.T)]
        return a_idx, ks, a_idx + self.offsets[ks]

    def pairs(self) -> np.ndarray:
        """(n, 2, d) array of matched (a, b) cells in absolute coordinates."""
        a_idx, _, b_idx = self.edges()
        low = np.array(self.rect.low)
        return np.stack([a_idx + low, b_idx + low], axis=1)

    def partner_of(self, cell) -> tuple | None:
        idx = tuple(c - l for c, l in zip(cell, self.rect.low))
        k = int(self.a_match[idx])
        if k < 0:
            return None
        return tuple(int(c + o) for c, o in zip(cell, self.offsets[k]))

    def validate(self, a_bits: np.ndarray | None = None, b_bits: np.ndarray | None = None):
        """Raise unless the stored maps form a consistent partial injection."""
        a_idx, ks, b_idx = self.edges()
        if len(b_idx):
            if b_idx.min() < 0 or np.any(b_idx >= np.array(self.rect.sides)):
                raise ArgumentError("matched partner outside the window")
            if np.any(self.b_match[tuple(b_idx.T)] != ks):
                raise ArgumentError("inverse map inconsistent")
        if int((self.b_match >= 0).sum()) != len(a_idx):
            raise ArgumentError("matched counts differ between sides (injectivity broken)")
        if a_bits is not None and len(a_idx) and not np.all(a_bits[tuple(a_idx.T)]):
            raise ArgumentError("matched source is not an A-cell")
        if b_bits is not None and len(b_idx) and not np.all(b_bits[tuple(b_idx.T)]):
            raise ArgumentError("matched target is not a B-cell")


# ---------------------------------------------------------------------------
# Core routines operating on local (sliced) arrays


def greedy_offset_pass(a_bits, b_bits, a_match, b_match, m_cap, region_id=None, order=None):
    """Match every free (a, a+v) pair, one offset v after another.

    ``order`` lists the offset indices to take, row-major when None. Pairs
    within one offset never conflict. With ``region_id`` given, pairs must
    share a non-negative region label.

    Sparse form of the dense per-offset sweep: the free A-cells (in a region)
    are listed once as flat indices into copies padded by M on every side,
    where a shift by v is one integer add that never wraps a row. Each offset
    tests only the A-cells still free, and matched cells leave the list.
    """
    d = a_bits.ndim
    offsets = offsets_row_major(m_cap, d)
    if order is None:
        order = range(len(offsets))
    padded = tuple(s + 2 * m_cap for s in a_bits.shape)
    inner = tuple(slice(m_cap, m_cap + s) for s in a_bits.shape)
    free = np.zeros(padded, dtype=bool)
    free[inner] = a_bits & (a_match < 0)
    if region_id is not None:
        free[inner] &= region_id >= 0
    idx = np.flatnonzero(free)
    if len(idx) == 0:
        return
    free[inner] = b_bits & (b_match < 0)  # from here on: the free B-cells
    free_b = free.ravel()
    if region_id is not None:
        reg = np.full(padded, -1, dtype=region_id.dtype)
        reg[inner] = region_id
        reg = reg.ravel()
        a_reg = reg[idx]
    strides = [int(np.prod(padded[i + 1 :])) for i in range(d)]
    shifts = offsets @ np.array(strides, dtype=np.intp)
    hit_a, hit_k = [], []
    for k in order:
        tgt = idx + shifts[k]
        ok = free_b[tgt]
        if region_id is not None:
            ok &= reg[tgt] == a_reg
        if not ok.any():
            continue
        free_b[tgt[ok]] = False
        hits = idx[ok]
        hit_a.append(hits)
        hit_k.append(np.full(len(hits), k, dtype=a_match.dtype))
        keep = ~ok
        idx = idx[keep]
        if region_id is not None:
            a_reg = a_reg[keep]
        if len(idx) == 0:
            break
    if not hit_k:
        return
    a_flat = np.concatenate(hit_a)
    ks = np.concatenate(hit_k)
    for match, flat in ((a_match, a_flat), (b_match, a_flat + shifts[ks])):
        cells = np.unravel_index(flat, padded)
        for c in cells:
            c -= m_cap
        match[cells] = ks


class BfsLayers(NamedTuple):
    """Result of ``_layered_bfs``.

    ``layer_a`` / ``layer_b`` hold each labelled cell's edge-distance from
    the start cells (-1 when unlabelled); ``ends`` marks the unmatched
    B-cells of the shortest depth ``depth`` (None and -1 when no path was
    found); ``parent`` holds, for each labelled B-cell, the row-major flat
    index of the row-major first A-cell of the previous layer within M.
    """

    layer_a: np.ndarray
    layer_b: np.ndarray
    ends: np.ndarray | None
    depth: int
    parent: np.ndarray


_NO_PARENT = np.iinfo(np.int32).max


def _layered_bfs(a_bits, b_bits, a_match, b_match, offsets, m_cap, cap_len, start_mask=None):
    """Layered alternating BFS from unmatched A-cells.

    Returns a ``BfsLayers``. Layers hold edge-distances: even on the A side,
    odd on the B side. Work per layer is confined to the frontier's bounding
    box, which keeps long single-source searches cheap. Each A -> B step runs
    a ``minimum_filter`` over the frontier's row-major indices: it yields the
    reached B-cells and, for each, its parent (the row-major first frontier
    cell within M), so the walk-back need not search a patch. With no start
    cell, the grids returned are read-only views of -1 and nothing is
    allocated.
    """
    front_full = a_bits & (a_match < 0)
    if start_mask is not None:
        front_full = front_full & start_mask
    if not front_full.any():
        unlabelled = np.broadcast_to(np.int32(-1), a_bits.shape)
        return BfsLayers(unlabelled, unlabelled, None, -1, unlabelled)
    shape = a_bits.shape
    sides = np.array(shape)
    layer_a = np.full(shape, -1, dtype=np.int32)
    layer_b = np.full(shape, -1, dtype=np.int32)
    parent = np.full(shape, -1, dtype=np.int32)
    layer_a[front_full] = 0
    pts = np.argwhere(front_full)
    flo, fhi = pts.min(axis=0), pts.max(axis=0) + 1
    fr = front_full[tuple(slice(int(a), int(b)) for a, b in zip(flo, fhi))].copy()
    depth = 0

    def stop():
        return BfsLayers(layer_a, layer_b, None, -1, parent)

    while True:
        depth += 1  # step A -> B over any edge
        if depth > cap_len:
            return stop()
        nlo = np.maximum(flo - m_cap, 0)
        nhi = np.minimum(fhi + m_cap, sides)
        sl = tuple(slice(int(a), int(b)) for a, b in zip(nlo, nhi))
        bshape = tuple(int(x) for x in nhi - nlo)
        box = np.zeros(bshape, dtype=bool)
        box[tuple(slice(int(a - c), int(b - c)) for a, b, c in zip(flo, fhi, nlo))] = fr
        # row-major order inside the box is row-major order in the array, so
        # the smallest box-local index within M is the first frontier cell
        nearest = np.full(bshape, _NO_PARENT, dtype=np.int32)
        local = np.flatnonzero(box)
        np.put(nearest, local, local)
        nearest = minimum_filter(nearest, size=2 * m_cap + 1, mode="constant", cval=_NO_PARENT)
        reach = (nearest != _NO_PARENT) & b_bits[sl] & (layer_b[sl] < 0)
        if not reach.any():
            return stop()
        layer_b[sl][reach] = depth
        cells = np.unravel_index(nearest[reach], bshape)
        parent[sl][reach] = np.ravel_multi_index(
            tuple(c + int(o) for c, o in zip(cells, nlo)), shape
        )
        ends = reach & (b_match[sl] < 0)
        if ends.any():
            full = np.zeros(shape, dtype=bool)
            full[sl] = ends
            return BfsLayers(layer_a, layer_b, full, depth, parent)
        depth += 1  # step B -> A over matched edges
        if depth > cap_len:
            return stop()
        bs = np.argwhere(reach) + nlo
        ks = b_match[tuple(bs.T)]
        As = bs - offsets[ks]
        # partners outside the array (edges crossing the region boundary)
        # cannot be rematched from here, so the path stops at them
        inb = np.all(As >= 0, axis=1) & np.all(As < sides, axis=1)
        As = As[inb]
        if len(As) == 0:
            return stop()
        alo, ahi = As.min(axis=0), As.max(axis=0) + 1
        frA = np.zeros(tuple(ahi - alo), dtype=bool)
        frA[tuple((As - alo).T)] = True
        slA = tuple(slice(int(a), int(b)) for a, b in zip(alo, ahi))
        frA &= layer_a[slA] < 0
        if not frA.any():
            return stop()
        layer_a[slA][frA] = depth
        fr, flo, fhi = frA, alo, ahi


def _first_true(mask) -> tuple | None:
    flat = np.flatnonzero(mask.ravel())
    if len(flat) == 0:
        return None
    return tuple(int(x) for x in np.unravel_index(flat[0], mask.shape))


def _unravel(flat: int, shape) -> tuple:
    """``np.unravel_index`` for one index, as a tuple of Python ints."""
    out = []
    for s in reversed(shape):
        flat, r = divmod(flat, s)
        out.append(r)
    return tuple(reversed(out))


def _walk_back(end, bfs: BfsLayers, a_match, offsets, m_cap, used_a=None, used_b=None):
    """Reconstruct one shortest path from an unmatched B endpoint.

    Row-major smallest predecessor at each step; returns the node list
    (B endpoint first) or None when disjointness masks block the walk. The
    predecessor is read from ``bfs.parent``; only when ``used_a`` already
    holds it is the (2M+1)^d patch searched for the next free one.
    """
    layer_a, parent = bfs.layer_a, bfs.parent
    sides = layer_a.shape
    nodes = [end]
    cur = end
    lev = bfs.depth
    while lev > 0:
        a = _unravel(int(parent[cur]), sides)
        if used_a is not None and used_a[a]:
            lo = tuple(max(0, c - m_cap) for c in cur)
            hi = tuple(min(s, c + m_cap + 1) for c, s in zip(cur, sides))
            patch = tuple(slice(l, h) for l, h in zip(lo, hi))
            pos = _first_true((layer_a[patch] == lev - 1) & ~used_a[patch])
            if pos is None:
                return None
            a = tuple(p + l for p, l in zip(pos, lo))
        nodes.append(a)
        lev -= 1
        if lev == 0:
            break
        k = a_match[a]
        b = tuple(int(c + o) for c, o in zip(a, offsets[k]))
        if used_b is not None and used_b[b]:
            return None
        nodes.append(b)
        cur = b
        lev -= 1
    return nodes


def _apply_flip(nodes, a_match, b_match, offsets, m_cap):
    """Flip the alternating path given as nodes [b_end, a, b, ..., a_start]."""
    box = 2 * m_cap + 1
    for i in range(1, len(nodes), 2):
        a = nodes[i]
        b = nodes[i - 1]
        off = tuple(bb - aa for aa, bb in zip(a, b))
        k = 0
        for o in off:
            k = k * box + (o + m_cap)
        a_match[a] = k
        b_match[b] = k


def augment_phase(a_bits, b_bits, a_match, b_match, m_cap, cap_len, start_mask=None):
    """One BFS plus a peel of vertex-disjoint shortest augmenting paths.

    Returns the number of paths flipped (0 when no path of length <= cap_len
    exists from the chosen start cells).
    """
    if not (b_bits & (b_match < 0)).any():
        return 0  # no endpoint can exist, and the BFS writes no match grid
    offsets = offsets_row_major(m_cap, a_bits.ndim)
    bfs = _layered_bfs(a_bits, b_bits, a_match, b_match, offsets, m_cap, cap_len, start_mask)
    if bfs.ends is None:
        return 0
    used_a = np.zeros_like(a_bits)
    used_b = np.zeros_like(a_bits)
    flips = 0
    for flat in np.flatnonzero(bfs.ends.ravel()):
        end = _unravel(int(flat), a_bits.shape)
        if used_b[end]:
            continue
        nodes = _walk_back(end, bfs, a_match, offsets, m_cap, used_a, used_b)
        if nodes is None:
            continue
        _apply_flip(nodes, a_match, b_match, offsets, m_cap)
        for i, n in enumerate(nodes):
            (used_b if i % 2 == 0 else used_a)[n] = True
        flips += 1
    return flips


def augment_to_max(a_bits, b_bits, a_match, b_match, m_cap):
    """Flip shortest augmenting paths until none remain."""
    cap_len = 2 * int(np.prod(a_bits.shape)) + 1  # longer than any path
    total = 0
    while True:
        flips = augment_phase(a_bits, b_bits, a_match, b_match, m_cap, cap_len)
        if flips == 0:
            return total
        total += flips


def _tiles(shape, s: int):
    """Slices of the corner-aligned s-cube tiling of an array, row-major."""
    counts = [max(1, -(-n // s)) for n in shape]
    for corner in np.ndindex(*counts):
        yield tuple(slice(c * s, min((c + 1) * s, n)) for c, n in zip(corner, shape))


def aligned_cube_ids(shape, s: int) -> np.ndarray:
    """Row-major ids of the corner-aligned s-cube tiling of an array."""
    ids = None
    counts = [-(-n // s) for n in shape]
    for ax, n in enumerate(shape):
        line = (np.arange(n) // s).astype(np.int32)
        sh = [1] * len(shape)
        sh[ax] = n
        line = line.reshape(sh)
        ids = line if ids is None else ids * counts[ax] + line
    return ids


def ladder_max_matching(a_bits, b_bits, a_match, b_match, m_cap):
    """Fill empty match grids with a maximum matching, built bottom-up.

    Greedy matching confined to base-size cubes, then augmentation over
    doubling cube tilings: imbalances cancel at the smallest scale where they
    meet, so only the array-wide surplus needs long paths.

    The greedy pass takes offsets nearest-first: a cell paired with its
    nearest free partner rarely blocks another, whereas the canonical
    row-major order pairs each A-cell with its far (-M, ..., -M) corner first
    and leaves many more augmenting paths to walk. Which maximum matching
    results is free, since every caller reads only a feasibility verdict;
    the canonical greedy of the square pipeline stays row-major.
    """
    base = 1 << max(LADDER_BASE - 1, 2 * m_cap).bit_length()
    region = aligned_cube_ids(a_bits.shape, base)
    order = _offsets_nearest_first(m_cap, a_bits.ndim)
    greedy_offset_pass(a_bits, b_bits, a_match, b_match, m_cap, region_id=region, order=order)
    return hierarchy_augment(a_bits, b_bits, a_match, b_match, m_cap, base=base)


def hierarchy_augment(a_bits, b_bits, a_match, b_match, m_cap, base: int | None = None):
    """Drive a matching to maximum by augmenting inside doubling cube tilings.

    Local imbalances cancel at small scales through short paths, so the final
    whole-array sweep (which certifies maximality) has few augmenting paths
    left to find. Far cheaper than whole-array phases on large windows, with
    the same end state guarantee: no augmenting path remains.
    """
    sides = a_bits.shape
    s = base if base is not None else 1 << max(4, 2 * m_cap - 1).bit_length()
    total = 0
    while True:
        ua = a_bits & (a_match < 0)
        ub = b_bits & (b_match < 0)
        if not ua.any() or not ub.any():
            return total
        full = s >= max(sides)
        for sl in _tiles(sides, s):
            if not (ua[sl].any() and ub[sl].any()):
                continue
            total += augment_to_max(
                a_bits[sl], b_bits[sl], a_match[sl], b_match[sl], m_cap
            )
        if full:
            return total
        s <<= 1


# ---------------------------------------------------------------------------
# Public operations


def _local_bits(win: CosetWindow, R: Rect):
    sl = R.slices_in(win.window)
    return win.a_bits.bits[sl], win.b_bits.bits[sl]


def bounded_augmenting_path(win: CosetWindow, R: Rect, m: Matching, max_len: int):
    """Shortest augmenting path of length <= max_len inside R, or None.

    Deterministic: the row-major first endpoint and predecessors are taken.
    Nodes are returned in path order (unmatched A-cell first), in coordinates
    relative to R.
    """
    if m.rect != R:
        raise ArgumentError("matching must be defined on R")
    m_cap = win.sys.m_cap
    a_bits, b_bits = _local_bits(win, R)
    offsets = m.offsets
    bfs = _layered_bfs(a_bits, b_bits, m.a_match, m.b_match, offsets, m_cap, max_len)
    if bfs.ends is None:
        return None
    nodes = _walk_back(_first_true(bfs.ends), bfs, m.a_match, offsets, m_cap)
    return list(reversed(nodes))


@dataclass(frozen=True)
class HallCertificate:
    """A deficient set: |neighborhood| < |cells| on the stated side."""

    side: str
    cells: np.ndarray
    neighborhood_size: int


def cover_side(a_in, b_in, m_cap, warm=None):
    """Can every true cell of ``a_in`` be matched into ``b_in``?

    Returns (ok, a_match, b_match, deficient_mask_or_None). Only the cover
    side carries vertices on A, so a maximum matching covering them exists
    exactly when augmentation succeeds from each. ``warm`` optionally seeds
    the search with a consistent partial covering (pair of match grids, edges
    at a_in cells only); the verdict does not depend on the seed.
    """
    if warm is None:
        a_match = np.full(a_in.shape, -1, dtype=np.int32)
        b_match = np.full(a_in.shape, -1, dtype=np.int32)
        ladder_max_matching(a_in, b_in, a_match, b_match, m_cap)
    else:
        a_match, b_match = warm
        hierarchy_augment(a_in, b_in, a_match, b_match, m_cap)
    unmatched = a_in & (a_match < 0)
    if not unmatched.any():
        return True, a_match, b_match, None
    big = 2 * a_in.size + 1
    offsets = offsets_row_major(m_cap, a_in.ndim)
    bfs = _layered_bfs(a_in, b_in, a_match, b_match, offsets, m_cap, big, start_mask=unmatched)
    # no augmenting path exists, so reached cells form a deficient witness
    return False, a_match, b_match, bfs.layer_a >= 0


def hall_deficiency(win: CosetWindow, R: Rect, required_a: CellSet, required_b: CellSet):
    """Certificate that no matching covers both required sets, or None.

    Coverage is checked per side (a matching saturating each required side
    separately can always be combined into one saturating both). A covering
    matching only uses partners within M of a required cell, so the search is
    confined to that neighbourhood of the required set.
    """
    req_cells = []
    for cs in (required_a, required_b):
        if cs.size():
            req_cells.append(cs.cells())
    if not req_cells:
        return None
    m_cap = win.sys.m_cap
    allc = np.concatenate(req_cells)
    lo = np.maximum(allc.min(axis=0) - m_cap, R.low)
    hi = np.minimum(allc.max(axis=0) + m_cap + 1, np.array(R.high))
    R_eff = Rect(tuple(int(x) for x in lo), tuple(int(b - a) for a, b in zip(lo, hi)))
    a_bits, b_bits = _local_bits(win, R_eff)
    low = np.array(R_eff.low)

    def local_mask(cs: CellSet):
        mask = np.zeros(R_eff.sides, dtype=bool)
        if cs.size():
            idx = cs.cells() - low
            if np.any(idx < 0) or np.any(idx >= np.array(R_eff.sides)):
                raise ArgumentError("required cells must lie in R")
            mask[tuple(idx.T)] = True
        return mask

    req_a = local_mask(required_a)
    req_b = local_mask(required_b)
    if np.any(req_a & ~a_bits) or np.any(req_b & ~b_bits):
        raise ArgumentError("required cells must belong to their part")
    ok_a, _, _, witness = cover_side(req_a, b_bits, m_cap)
    if not ok_a:
        cells = np.argwhere(witness) + low
        nb = int((dilate(witness, m_cap) & b_bits).sum())
        return HallCertificate(side="A", cells=cells, neighborhood_size=nb)
    ok_b, _, _, witness = cover_side(req_b, a_bits, m_cap)
    if not ok_b:
        cells = np.argwhere(witness) + low
        nb = int((dilate(witness, m_cap) & a_bits).sum())
        return HallCertificate(side="B", cells=cells, neighborhood_size=nb)
    return None

