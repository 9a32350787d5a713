"""Finite lattice windows of coset fibers, grid colorings with sparse color
classes, greedy maximal sparse nets, and the local-rule / equivariance harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from eqdec.errors import ArgumentError, PrecisionError, ResourceError
from eqdec.lattice import CellSet, Rect
from eqdec.torus import FreeVectorSystem, Shape, TorusPoint, coset_point, torus_delta

__all__ = [
    "CosetWindow",
    "SparseColoring",
    "extract_window",
    "build_sparse_coloring",
    "greedy_sparse_net",
    "equivariance_check",
    "torus_coords",
]

DEFAULT_CELL_CAP = 1 << 26


def torus_coords(sys: FreeVectorSystem, u: TorusPoint, window: Rect) -> np.ndarray:
    """Torus coordinates of every window cell, shape sides + (k,)."""
    d, k = sys.d, sys.k
    if window.d != d:
        raise ArgumentError("window dimension must match the vector system")
    acc = np.broadcast_to(u.array(), window.sides + (k,)).copy()
    for j in range(d):
        n = np.arange(window.low[j], window.low[j] + window.sides[j], dtype=np.float64)
        term = np.multiply.outer(n, sys.vectors[j])
        shape = [1] * d + [k]
        shape[j] = window.sides[j]
        acc += term.reshape(shape)
    acc -= np.floor(acc)
    acc[acc >= 1.0] = 0.0
    return acc


@dataclass
class CosetWindow:
    """Bit grids of two shapes along one coset, restricted to a finite window."""

    base: TorusPoint
    sys: FreeVectorSystem
    window: Rect
    a_bits: CellSet
    b_bits: CellSet
    _coords: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def d(self) -> int:
        return self.window.d

    def torus_coords(self) -> np.ndarray:
        if self._coords is None:
            self._coords = torus_coords(self.sys, self.base, self.window)
        return self._coords

    def core_rect(self, margin: int) -> Rect:
        """The window minus ``margin`` cells on every side: the cells far enough
        from the edge to carry the infinite-lattice guarantee."""
        sides = tuple(s - 2 * margin for s in self.window.sides)
        if any(s < 1 for s in sides):
            raise ArgumentError(f"margin {margin} leaves no untainted core")
        return Rect(tuple(l + margin for l in self.window.low), sides)


def extract_window(
    shape_a: Shape,
    shape_b: Shape,
    sys: FreeVectorSystem,
    u: TorusPoint,
    window: Rect,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> CosetWindow:
    """Evaluate both shapes at every coset point of the window."""
    if window.volume() > cell_cap:
        raise ResourceError(f"window volume {window.volume()} exceeds cap {cell_cap}")
    coords = torus_coords(sys, u, window)
    flat = coords.reshape(-1, sys.k)
    a = shape_a.contains_batch(flat).reshape(window.sides)
    b = shape_b.contains_batch(flat).reshape(window.sides)
    win = CosetWindow(
        base=u,
        sys=sys,
        window=window,
        a_bits=CellSet(window, a),
        b_bits=CellSet(window, b),
    )
    win._coords = coords
    return win


@dataclass(frozen=True)
class SparseColoring:
    """Coloring of the torus by half-open (1/n)-grid boxes.

    Window cells sharing a color are farther apart than the radius the
    coloring was built for.
    """

    n_grid: int
    k: int
    radius: int
    min_distance: float

    def color_of(self, points: np.ndarray) -> np.ndarray:
        idx = np.floor(np.asarray(points) * self.n_grid).astype(np.int64)
        np.clip(idx, 0, self.n_grid - 1, out=idx)
        flat = idx[..., 0]
        for j in range(1, self.k):
            flat = flat * self.n_grid + idx[..., j]
        return flat


def _min_translation_distance(sys: FreeVectorSystem, r: int) -> float:
    """Min torus sup-norm over nonzero combinations with coefficients <= r.

    The nonzero coefficient vectors are streamed in row-major chunks of 2^18,
    so memory stays bounded whatever r and d: the whole (2r+1)^d box is
    never built.
    """
    best = np.inf
    box = (2 * r + 1,) * sys.d
    total = int(np.prod(box))
    for lo in range(0, total - 1, 1 << 18):
        idx = np.arange(lo, min(lo + (1 << 18), total - 1))
        idx += idx >= total // 2  # skip the zero vector, the box's centre
        c = (np.stack(np.unravel_index(idx, box), axis=-1) - r).astype(np.float64)
        v = c @ sys.vectors
        v -= np.floor(v)
        dist = torus_delta(v, 0.0).max(axis=1)
        best = min(best, float(dist.min()))
    return best


def build_sparse_coloring(sys: FreeVectorSystem, r: int) -> SparseColoring:
    """Grid coloring whose color classes are r-sparse on every coset window."""
    if r < 1:
        raise ArgumentError("r must be >= 1")
    min_dist = _min_translation_distance(sys, r)
    if min_dist < 2.0**-40:
        raise PrecisionError(
            f"translation set collapses at radius {r}: min distance {min_dist:.3e}"
        )
    n = int(np.floor(1.0 / min_dist)) + 1
    while 1.0 / n >= min_dist:
        n += 1
    return SparseColoring(n_grid=n, k=sys.k, radius=r, min_distance=min_dist)


def greedy_sparse_net(win: CosetWindow, coloring: SparseColoring, r: int) -> CellSet:
    """Maximal r-sparse net on the window, greedy over ascending colors.

    Color classes are processed in order; a whole class is admitted at once
    against the net built from earlier classes (cells of one class can never
    conflict with each other). Classes can far outnumber net cells (243,049
    for 39 at r = 128 on a 1024^2 window), so the scan jumps to the next
    class that still holds an uncovered cell, searching in doubling chunks.
    """
    if coloring.radius < r:
        raise ArgumentError("coloring was built for a smaller sparsity radius")
    sides = win.window.sides
    colors = coloring.color_of(win.torus_coords()).reshape(-1)
    order = np.argsort(colors, kind="stable")
    sorted_colors = colors[order]
    group_starts = np.flatnonzero(np.diff(sorted_colors, prepend=sorted_colors[0] - 1))
    group_ends = np.append(group_starts[1:], len(order))
    covered = np.zeros(sides, dtype=bool)
    flat_covered = covered.reshape(-1)
    net = np.zeros(sides, dtype=bool)
    pos, step = 0, 64
    while pos < len(order):
        hit = np.flatnonzero(~flat_covered[order[pos : pos + step]])
        if len(hit) == 0:
            pos += step
            step *= 2
            continue
        gi = np.searchsorted(group_starts, pos + hit[0], side="right") - 1
        cand = order[group_starts[gi] : group_ends[gi]]
        cand = cand[~flat_covered[cand]]
        net.reshape(-1)[cand] = True
        for flat_idx in cand:
            cell = np.unravel_index(flat_idx, sides)
            sl = tuple(
                slice(max(0, c - r), min(s, c + r + 1)) for c, s in zip(cell, sides)
            )
            covered[sl] = True
        pos, step = group_ends[gi], 64
    return CellSet(win.window, net)


def equivariance_check(
    run_pipeline: Callable[[CosetWindow], tuple],
    make_window: Callable[[TorusPoint], CosetWindow],
    sys: FreeVectorSystem,
    u: TorusPoint,
    shift,
    window: Rect,
) -> bool:
    """Does the pipeline commute with a base-point shift on the core?

    Runs from u and from u + shift.x on the same window rect; the second run's
    content is the first's translated by the shift, so on the overlap of the
    untainted cores the match-offset grids must agree cell for cell.
    """
    shift = np.asarray(shift, dtype=np.int64)
    if shift.shape != (sys.d,):
        raise ArgumentError("shift length must equal d")
    m1, margin1 = run_pipeline(make_window(u))
    u2 = coset_point(u, shift, sys)
    m2, margin2 = run_pipeline(make_window(u2))
    margin = max(margin1, margin2)
    sides = np.array(window.sides)
    lo = np.maximum(margin, margin - shift)
    hi = np.minimum(sides - margin, sides - margin - shift)
    if np.any(hi - lo < 1):
        raise ArgumentError("insufficient overlap between shifted cores")
    base = tuple(slice(int(a), int(b)) for a, b in zip(lo, hi))
    shifted = tuple(slice(int(a + s), int(b + s)) for a, b, s in zip(lo, hi, shift))
    return bool(np.array_equal(m2[base], m1[shifted]))
