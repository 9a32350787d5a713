"""Bipartite translation matchings on lattice windows.

Edges join A-cells to B-cells at sup-norm distance at most M. Matchings are
stored as per-cell offset indices (row-major index into the offset box), with
a consistently maintained inverse map. The engine answers three questions:

- a maximum matching of a region: ``greedy_offset_pass`` (offsets row-major)
  then shortest-path phases (row-major tie-breaks) until none flips give the
  canonical one, a pure function of the window content, so translating the
  content translates the matching. ``ladder_max_matching`` reaches some
  maximum matching faster: a nearest-first greedy pass over the whole region
  leaves fewer augmenting paths, and ``hierarchy_augment`` then runs forest
  sweeps (``_forest_sweep``) over the whole region until one flips nothing;
  each sweep flips up to one path per free A-cell whatever its length. Only
  the Baire side calls them, whose checks read a verdict that every maximum
  matching gives alike;
- can one side be covered into the other, with a Hall-deficient witness
  when not: ``cover_side``, which ``hall_deficiency`` runs for both sides;
- length-capped augmentation: a phase flips vertex-disjoint shortest
  augmenting paths no longer than its cap; ``_layered_bfs`` alone says
  whether one exists.

Phases run over packed regions: ``_augment_regions`` stacks every region of
a pass still active into bounded packs along axis 0, M empty rows apart, and
runs one phase per pack, each region stopping at its own first layer with a
free B-cell. So thousands of small regions cost a few dozen numpy calls per
pack, not per region, and each ends exactly as if phased alone.
``augment_phase`` and ``augment_to_max`` are the same code on one region.

Three kernels carry most of the work. The greedy pass walks a shrinking list
of free A-cells, as flat indices into grids padded by M, instead of sweeping
whole arrays per offset. The A -> B step shared by the layered BFS and the
forest (``_a_to_b``) is one int32 ``minimum_filter`` that also yields each
reached B-cell's parent, the row-major first frontier A-cell within M. So a
walk-back step is one lookup; the layered BFS's walk-back searches the
(2M+1)^d patch only when the parent already lies on a path flipped in the
same phase, and the forest's never does.
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
    "hall_deficiency",
]

# Cells of one pack of regions in ``_augment_regions``, gutters included.
# Larger packs hold more memory at once (unbounded ones raised the
# flagship's peak RSS by over 10%); packs of 2^14 to 2^16 cells made its
# solve 11-27% slower.
PACK_CELLS = 1 << 17

# Extra rows, past 2M, between two frontier cells at which the layered BFS
# splits its A -> B step into separate bounding boxes (``_row_bands``).
BAND_GAP = 64


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


# int32 on purpose: scipy passes ``cval`` through a double, and an int64-max
# sentinel does not survive the round trip
_NO_PARENT = np.iinfo(np.int32).max


def _a_to_b(pts, b_bits, label_b, m_cap):
    """One A -> B step of an alternating BFS from the frontier A-cells ``pts``.

    Returns (bs, parents): the B-cells within M of a frontier cell and still
    unlabelled (``label_b`` < 0), as an (n, d) array in row-major order, and
    for each its parent, the row-major first frontier cell within M, as a
    row-major flat index into the array. Work is confined to the frontier's
    bounding box grown by M, where one int32 ``minimum_filter`` over the
    frontier's flat indices yields both: flat indices grow in row-major order.
    """
    shape = b_bits.shape
    lo = np.maximum(pts.min(axis=0) - m_cap, 0)
    hi = np.minimum(pts.max(axis=0) + m_cap + 1, shape)
    sl = tuple(map(slice, lo.tolist(), hi.tolist()))
    bshape = tuple((hi - lo).tolist())
    nearest = np.full(bshape, _NO_PARENT, dtype=np.int32)
    nearest[tuple((pts - lo).T)] = np.ravel_multi_index(tuple(pts.T), shape)
    nearest = minimum_filter(nearest, size=2 * m_cap + 1, mode="constant", cval=_NO_PARENT)
    reach = b_bits[sl] & (label_b[sl] < 0)
    reach &= nearest != _NO_PARENT
    reach = np.nonzero(reach)
    return np.stack(reach, axis=1) + lo, nearest[reach]


def _partners_inside(bs, b_match, offsets, shape):
    """The matched partners of the B-cells ``bs``, and the mask of those
    inside the array: partners outside (edges crossing the region boundary)
    cannot be rematched from here, so a path stops at them."""
    As = bs - offsets[b_match[tuple(bs.T)]]
    return As, np.all(As >= 0, axis=1) & np.all(As < shape, axis=1)


def _row_bands(pts, m_cap):
    """Split frontier cells into bands of rows more than 2M + ``BAND_GAP``
    apart, in row order. The bands' A -> B boxes are disjoint, so one
    ``_a_to_b`` per band reaches what one over all the cells would, while
    the rows between bands (a pack's finished regions) cost nothing."""
    rows = pts[:, 0]
    lo = int(rows.min())
    occupied = np.flatnonzero(np.bincount(rows - lo)) + lo
    cuts = occupied[1:][np.diff(occupied) > 2 * m_cap + BAND_GAP]
    if len(cuts) == 0:
        return [pts]
    band = np.searchsorted(cuts, rows, side="right")
    sizes = np.bincount(band, minlength=len(cuts) + 1)
    return np.split(pts[np.argsort(band, kind="stable")], np.cumsum(sizes)[:-1])


def _layered_bfs(a_bits, b_bits, a_match, b_match, offsets, m_cap, cap_len, row_region=None):
    """Layered alternating BFS from every unmatched A-cell.

    Returns a ``BfsLayers``. Layers hold edge-distances: even on the A side,
    odd on the B side. Work per layer is confined to the frontier's bounding
    box, one per band of rows (``_row_bands``), which keeps long
    single-source searches and sparse packs cheap. Each A -> B step
    (``_a_to_b``) yields the reached B-cells and, for each, its parent (the
    row-major first frontier cell within M), so the walk-back need not search
    a patch. With no start cell, the grids returned are read-only views of -1
    and nothing is allocated.

    ``row_region`` runs the search on a pack of regions (``_augment_regions``)
    at once: it holds each row's region index, -1 in the gutters; by default
    the array is one region. Each region stops at its own first layer that
    reaches a free B-cell, and ``depth`` is the last such layer of any
    region.
    """
    front_full = a_bits & (a_match < 0)
    if not front_full.any():
        unlabelled = np.broadcast_to(np.int32(-1), a_bits.shape)
        return BfsLayers(unlabelled, unlabelled, None, -1, unlabelled)
    shape = a_bits.shape
    layer_a = np.full(shape, -1, dtype=np.int32)
    layer_b = np.full(shape, -1, dtype=np.int32)
    parent = np.full(shape, -1, dtype=np.int32)
    pts = np.argwhere(front_full)
    layer_a[tuple(pts.T)] = 0
    if row_region is None:
        row_region = np.zeros(shape[0], dtype=np.int32)  # one region
    done = np.zeros(int(row_region.max()) + 1, dtype=bool)
    ends, end_depth = None, -1
    depth = 0
    while True:
        depth += 1  # step A -> B over any edge
        if depth > cap_len:
            break
        reached = [_a_to_b(band, b_bits, layer_b, m_cap) for band in _row_bands(pts, m_cap)]
        bs = np.concatenate([r[0] for r in reached])
        if len(bs) == 0:
            break
        cells = tuple(bs.T)
        layer_b[cells] = depth
        parent[cells] = np.concatenate([r[1] for r in reached])
        free = b_match[cells] < 0
        if free.any():
            if ends is None:
                ends = np.zeros(shape, dtype=bool)
            ends[tuple(bs[free].T)] = True
            end_depth = depth
            region = row_region[bs[:, 0]]
            done[region[free]] = True
            bs = bs[~done[region]]
        depth += 1  # step B -> A over matched edges
        if depth > cap_len:
            break
        # a matched A-cell is reached only from its partner, which the
        # A -> B step labels once, so no A-cell is labelled twice; a partner
        # in a pack's gutter is outside its region and stops the path
        As, inside = _partners_inside(bs, b_match, offsets, shape)
        pts = As[inside]
        pts = pts[a_bits[tuple(pts.T)]]
        if len(pts) == 0:
            break
        layer_a[tuple(pts.T)] = depth
    return BfsLayers(layer_a, layer_b, ends, end_depth, parent)


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


def _walk_back(end, bfs: BfsLayers, a_match, offsets, m_cap, used_a, used_b):
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
    lev = int(bfs.layer_b[end])
    while lev > 0:
        a = _unravel(int(parent[cur]), sides)
        if used_a[a]:
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
        if used_b[b]:
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


def _phase(a_bits, b_bits, a_match, b_match, m_cap, cap_len, row_region=None):
    """One BFS plus a peel of vertex-disjoint shortest augmenting paths.

    Paths are peeled from their B ends in row-major order. Returns the
    axis-0 rows of the flipped paths' B ends, which ``row_region`` maps to
    regions in a pack.
    """
    offsets = offsets_row_major(m_cap, a_bits.ndim)
    bfs = _layered_bfs(a_bits, b_bits, a_match, b_match, offsets, m_cap, cap_len, row_region)
    if bfs.ends is None:
        return []
    used_a = np.zeros_like(a_bits)
    used_b = np.zeros_like(a_bits)
    rows = []
    for end in map(tuple, np.argwhere(bfs.ends).tolist()):
        if used_b[end]:
            continue
        nodes = _walk_back(end, bfs, a_match, offsets, m_cap, used_a, used_b)
        if nodes is None:
            continue
        _apply_flip(nodes, a_match, b_match, offsets, m_cap)
        for i, n in enumerate(nodes):
            (used_b if i % 2 == 0 else used_a)[n] = True
        rows.append(end[0])
    return rows


def augment_phase(a_bits, b_bits, a_match, b_match, m_cap, cap_len):
    """One phase on one region: flips vertex-disjoint shortest augmenting
    paths no longer than ``cap_len``.

    Returns the number of paths flipped (0 when no path of length <= cap_len
    exists).
    """
    if not (b_bits & (b_match < 0)).any():
        return 0  # no endpoint can exist, and the BFS writes no match grid
    return len(_phase(a_bits, b_bits, a_match, b_match, m_cap, cap_len))


def augment_to_max(a_bits, b_bits, a_match, b_match, m_cap):
    """Flip shortest augmenting paths until none remain."""
    cap_len = 2 * int(np.prod(a_bits.shape)) + 1  # longer than any path
    total = 0
    while True:
        flips = augment_phase(a_bits, b_bits, a_match, b_match, m_cap, cap_len)
        if flips == 0:
            return total
        total += flips


def _augment_regions(a_bits, b_bits, a_match, b_match, m_cap, lows, sides, cap_len=None):
    """Augment in every region until a phase flips nothing there.

    Regions are disjoint boxes of the arrays, given by their (n, d) low
    corners and sides. Each ends as if ``augment_phase`` had run on its
    slices alone, over and over, with ``cap_len`` (no cap when None). Each
    phase runs once for all regions still active: runs of them are copied
    into packs of about ``PACK_CELLS`` cells (or one region), stacked along
    axis 0 with M empty rows between them, so no edge joins two regions and
    the partner of a B-cell matched out of its region lands in a gutter, out
    of the pack, or on a row's padding past its region. Row-major order in a
    pack, restricted to one region, is that region's own row-major order, so
    the parents, the ends and the peel are those of the one-region phase.
    """
    if not len(lows):
        return
    lows, sides = np.asarray(lows), np.asarray(sides)
    # every pack lives in buffers made once per call: fresh pack-sized
    # arrays per phase left the heap fragmented enough to raise the
    # flagship's peak RSS from about 160 to 173 MiB. A pack's regions start
    # less than one row budget apart, so no pack is taller than ``height``.
    trail = int(np.prod(sides[:, 1:].max(axis=0)))
    height = min(PACK_CELLS // trail + int(sides[:, 0].max()), int((sides[:, 0] + m_cap).sum()))
    bits = np.empty((2, height * trail), dtype=bool)
    matches = np.empty((2, height * trail), dtype=np.int32)
    active = np.arange(len(lows))
    while len(active):
        rows = sides[active, 0] + m_cap
        budget = max(1, PACK_CELLS // int(np.prod(sides[active, 1:].max(axis=0))))
        pack_of = (np.cumsum(rows) - rows) // budget
        still = []
        for ids in np.split(active, np.flatnonzero(np.diff(pack_of)) + 1):
            heights = sides[ids, 0]
            starts = np.cumsum(heights + m_cap) - heights - m_cap
            pack = (int(starts[-1] + heights[-1]),) + tuple(sides[ids, 1:].max(axis=0).tolist())
            cells = int(np.prod(pack))
            bits[:, :cells], matches[:, :cells] = False, -1
            pa, pb = (b[:cells].reshape(pack) for b in bits)
            pam, pbm = (b[:cells].reshape(pack) for b in matches)
            row_region = np.full(pack[0], -1, dtype=np.int32)
            places = []
            boxes = zip(starts.tolist(), lows[ids].tolist(), sides[ids].tolist())
            for j, (r, lo, sd) in enumerate(boxes):
                sl = tuple(slice(l, l + n) for l, n in zip(lo, sd))
                dst = (slice(r, r + sd[0]),) + tuple(slice(0, n) for n in sd[1:])
                pa[dst], pb[dst] = a_bits[sl], b_bits[sl]
                pam[dst], pbm[dst] = a_match[sl], b_match[sl]
                row_region[dst[0]] = j
                places.append((sl, dst))
            # a phase flips nothing in a region without a free A-cell and a
            # free B-cell: take its A-cells out of the search
            flat = (pack[0], -1)
            free_a = (pa & (pam < 0)).reshape(flat).any(axis=1)
            free_b = (pb & (pbm < 0)).reshape(flat).any(axis=1)
            live = np.logical_or.reduceat(free_a, starts) & np.logical_or.reduceat(free_b, starts)
            if not live.any():
                continue
            pa[~live[row_region]] = False  # gutter rows hold no A-cell anyway
            cap = 2 * pa.size + 1 if cap_len is None else cap_len
            end_rows = _phase(pa, pb, pam, pbm, m_cap, cap, row_region)
            flipped = np.flatnonzero(np.bincount(row_region[end_rows], minlength=len(ids)))
            for j in flipped.tolist():
                sl, dst = places[j]
                a_match[sl], b_match[sl] = pam[dst], pbm[dst]
            still.append(ids[flipped])
        active = np.concatenate(still) if still else active[:0]


def _forest_sweep(a_bits, b_bits, a_match, b_match, m_cap, labels):
    """One sweep of a multi-source BFS forest; returns the paths flipped.

    Grows vertex-disjoint alternating trees from every free A-cell at once,
    one ``_a_to_b`` step per layer: a reached B-cell joins its parent's tree,
    and a B-cell's matched partner joins the same tree (partners outside the
    array stop the path, as in ``_layered_bfs``). A tree stops at its first
    free B-cell, the row-major first of the layer where it meets one; each
    finished tree then flips that path by following parent pointers, so one
    sweep augments along up to one path per tree, whatever their lengths
    (Pothen and Fan, ACM TOMS 16(4), 1990; Azad, Buluç and Pothen, IEEE TPDS
    28(1), 2017). The match grids may be views: they are written only
    through index tuples. ``labels`` is int32 scratch of shape
    ``(2,) + a_bits.shape``, overwritten. A sweep that flips nothing
    certifies a maximum matching, since no tree then stopped early and the
    forest reached every cell an augmenting path could reach.
    """
    shape = a_bits.shape
    roots = a_bits & (a_match < 0)
    if not roots.any() or not (b_bits & (b_match < 0)).any():
        return 0
    offsets = offsets_row_major(m_cap, a_bits.ndim)
    box = (2 * m_cap + 1,) * a_bits.ndim
    pts = np.argwhere(roots)
    tree = np.arange(len(pts), dtype=np.int32)  # tree of each frontier cell
    labels.fill(-1)
    tree_a, parent = labels  # parent: flat index of each labelled B-cell's parent
    done = np.zeros(len(pts), dtype=bool)
    ends = []
    while len(pts):
        tree_a[tuple(pts.T)] = tree
        bs, parents = _a_to_b(pts, b_bits, parent, m_cap)
        if len(bs) == 0:
            break
        cells = tuple(bs.T)
        parent[cells] = parents
        t = np.take(tree_a, parents)
        free = b_match[cells] < 0
        if free.any():
            finished, first = np.unique(t[free], return_index=True)
            ends.append(bs[free][first])
            done[finished] = True
        grow = ~done[t]  # excludes free cells: their trees are done
        As, inside = _partners_inside(bs[grow], b_match, offsets, shape)
        pts, tree = As[inside], t[grow][inside]
    if not ends:
        return 0
    b = np.concatenate(ends)
    flips = len(b)
    while len(b):  # flip every path at once, one edge pair per step
        a = np.stack(np.unravel_index(parent[tuple(b.T)], shape), axis=1)
        k = np.ravel_multi_index(tuple((b - a + m_cap).T), box)
        k_old = a_match[tuple(a.T)]
        a_match[tuple(a.T)] = k
        b_match[tuple(b.T)] = k
        more = k_old >= 0  # a root ends its path
        b = a[more] + offsets[k_old[more]]
    return flips


def ladder_max_matching(a_bits, b_bits, a_match, b_match, m_cap):
    """Fill empty match grids with a maximum matching: a nearest-first
    ``greedy_offset_pass`` over the whole arrays, then ``hierarchy_augment``.

    Nearest-first offsets leave fewer augmenting paths than the canonical
    row-major order, which pairs each A-cell with its far (-M, ..., -M)
    corner first. Which maximum matching results is free, since every caller
    reads only a feasibility verdict; the canonical greedy of the square
    pipeline stays row-major.
    """
    order = _offsets_nearest_first(m_cap, a_bits.ndim)
    greedy_offset_pass(a_bits, b_bits, a_match, b_match, m_cap, order=order)
    return hierarchy_augment(a_bits, b_bits, a_match, b_match, m_cap)


def hierarchy_augment(a_bits, b_bits, a_match, b_match, m_cap):
    """Drive a matching to maximum: ``_forest_sweep`` over the whole arrays
    until a sweep flips nothing, which certifies that no augmenting path
    remains. Returns the paths flipped. Each sweep flips up to one path per
    free A-cell, whatever its length, so no tiling of the arrays pays. Which
    maximum matching results is not canonical, so only the Baire side, whose
    callers read a feasibility verdict, calls this.
    """
    labels = np.empty((2,) + a_bits.shape, dtype=np.int32)
    total = 0
    while flips := _forest_sweep(a_bits, b_bits, a_match, b_match, m_cap, labels):
        total += flips
    return total


# ---------------------------------------------------------------------------
# Public operations


def _local_bits(win: CosetWindow, R: Rect):
    sl = R.slices_in(win.window)
    return win.a_bits.bits[sl], win.b_bits.bits[sl]


@dataclass(frozen=True)
class HallCertificate:
    """A deficient set: |neighborhood| < |cells| on the stated side."""

    side: str
    cells: np.ndarray
    neighborhood_size: int


def cover_side(a_in, b_in, m_cap):
    """Can every true cell of ``a_in`` be matched into ``b_in``?

    Returns (ok, a_match, b_match, deficient_mask_or_None). Only the cover
    side carries vertices on A, so a maximum matching (``ladder_max_matching``)
    covers them exactly when any matching does; when it does not, the cells
    its free ones reach by alternating paths form a Hall-deficient witness.
    """
    a_match = np.full(a_in.shape, -1, dtype=np.int32)
    b_match = np.full(a_in.shape, -1, dtype=np.int32)
    ladder_max_matching(a_in, b_in, a_match, b_match, m_cap)
    if not (a_in & (a_match < 0)).any():
        return True, a_match, b_match, None
    offsets = offsets_row_major(m_cap, a_in.ndim)
    bfs = _layered_bfs(a_in, b_in, a_match, b_match, offsets, m_cap, 2 * a_in.size + 1)
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

