"""Finite-window primitives on Z^d: rectangles, cell sets, window reductions
and dilation, perimeters, the isoperimetric bound, and the merged binary
rectangle tree's node boxes for many cubes at once as numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from eqdec.errors import ArgumentError

__all__ = [
    "Rect",
    "CellSet",
    "perimeter",
    "internal_boundary",
    "isoperimetry_check",
    "rect_tree_boxes",
    "dilate",
]


@dataclass(frozen=True)
class Rect:
    """Axis-aligned box of lattice cells: prod_j [low_j, low_j + sides_j)."""

    low: tuple
    sides: tuple

    def __post_init__(self):
        low = tuple(int(x) for x in self.low)
        sides = tuple(int(s) for s in self.sides)
        if len(low) != len(sides) or not sides:
            raise ArgumentError("low and sides must have equal positive length")
        if any(s < 1 for s in sides):
            raise ArgumentError("all sides must be >= 1")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "sides", sides)

    @property
    def d(self) -> int:
        return len(self.sides)

    @property
    def high(self) -> tuple:
        return tuple(l + s for l, s in zip(self.low, self.sides))

    def volume(self) -> int:
        v = 1
        for s in self.sides:
            v *= s
        return v

    def balance(self) -> float:
        return max(self.sides) / min(self.sides)

    def contains_cell(self, cell) -> bool:
        return all(l <= c < l + s for c, l, s in zip(cell, self.low, self.sides))

    def contains_rect(self, other: "Rect") -> bool:
        return all(
            self.low[j] <= other.low[j] and other.high[j] <= self.high[j] for j in range(self.d)
        )

    def slices_in(self, outer: "Rect"):
        """Index slices of this rect inside an enclosing rect's array."""
        if not outer.contains_rect(self):
            raise ArgumentError("rect not contained in outer rect")
        return tuple(
            slice(l - ol, l - ol + s) for l, s, ol in zip(self.low, self.sides, outer.low)
        )


@dataclass(frozen=True)
class CellSet:
    """Dense bit grid over a bounding rect; cells outside the rect are absent."""

    rect: Rect
    bits: np.ndarray = field(repr=False)

    def __post_init__(self):
        b = np.ascontiguousarray(np.asarray(self.bits, dtype=bool))
        if b.shape != self.rect.sides:
            raise ArgumentError(f"bits shape {b.shape} != rect sides {self.rect.sides}")
        object.__setattr__(self, "bits", b)
        self.bits.setflags(write=False)

    @staticmethod
    def from_cells(cells: Sequence[Sequence[int]], rect: Rect | None = None) -> "CellSet":
        arr = np.asarray(list(cells), dtype=np.int64).reshape(-1, len(cells[0]))
        if rect is None:
            lo = arr.min(axis=0)
            hi = arr.max(axis=0)
            rect = Rect(tuple(lo), tuple(hi - lo + 1))
        bits = np.zeros(rect.sides, dtype=bool)
        idx = arr - np.array(rect.low)
        bits[tuple(idx.T)] = True
        return CellSet(rect, bits)

    @staticmethod
    def empty(rect: Rect) -> "CellSet":
        return CellSet(rect, np.zeros(rect.sides, dtype=bool))

    def size(self) -> int:
        return int(self.bits.sum())

    def contains(self, cell) -> bool:
        if not self.rect.contains_cell(cell):
            return False
        idx = tuple(c - l for c, l in zip(cell, self.rect.low))
        return bool(self.bits[idx])

    def cells(self) -> np.ndarray:
        """Member cells in row-major order, absolute coordinates."""
        idx = np.argwhere(self.bits)
        return idx + np.array(self.rect.low)


def window_reduce(out, shape, m, op):
    """``op`` over the (2m+1)^d window of each cell of a grid of ``shape``,
    given as ``out`` padded by m on every side. Per axis: log-step doubling,
    one ``op`` of two shifted views per step (spans 1, 2, 4, ... up to the
    largest power of two not above 2m + 1), then one overlapping step for the
    rest, so ``op`` must be idempotent (``np.minimum``, ``np.logical_or``).
    """
    width = 2 * m + 1
    for axis, side in enumerate(shape):
        span = 1
        while 2 * span <= width:
            cut = out.shape[axis] - span
            out = op(_along(out, axis, 0, cut), _along(out, axis, span, cut))
            span *= 2
        if span < width:
            out = op(_along(out, axis, 0, side), _along(out, axis, width - span, side))
    return out


def _along(a, axis, start, n):
    """The view of ``a`` holding ``n`` slices from ``start`` along ``axis``."""
    return a[(slice(None),) * axis + (slice(start, start + n),)]


def dilate(bits: np.ndarray, m: int) -> np.ndarray:
    """Cells within sup-norm distance m of a true cell (no growth of the array)."""
    bits = np.asarray(bits, dtype=bool)
    return window_reduce(np.pad(bits, m), bits.shape, m, np.logical_or)


def perimeter(X: CellSet) -> int:
    """Number of edges leaving X in the 2d-regular grid graph."""
    total = 0
    bits = X.bits
    for ax in range(X.rect.d):
        inner = bits[_shift_slice(X.rect.d, ax, 0)] & bits[_shift_slice(X.rect.d, ax, 1)]
        total += 2 * (int(bits.sum()) - int(inner.sum()))
        # the line above counts per-axis exits: |X| per direction minus interior adjacencies
    return total


def _shift_slice(d, ax, which):
    s = [slice(None)] * d
    s[ax] = slice(0, -1) if which == 0 else slice(1, None)
    return tuple(s)


def internal_boundary(X: CellSet, R: Rect) -> int:
    """Count boundary pairs of X with both cells inside R. Requires X within R."""
    full = np.zeros(R.sides, dtype=bool)
    if X.size():
        idx = X.cells() - np.array(R.low)
        if np.any(idx < 0) or np.any(idx >= np.array(R.sides)):
            raise ArgumentError("X must be contained in R")
        full[tuple(idx.T)] = True
    count = 0
    for ax in range(R.d):
        a = full[_shift_slice(R.d, ax, 0)]
        b = full[_shift_slice(R.d, ax, 1)]
        count += int((a & ~b).sum()) + int((~a & b).sum())
    return count


def isoperimetry_check(X: CellSet):
    """Perimeter against the 2d |X|^((d-1)/d) lower bound; ok must always hold."""
    n = X.size()
    if n == 0:
        raise ArgumentError("X must be non-empty")
    d = X.rect.d
    p = perimeter(X)
    bound = 2 * d * n ** ((d - 1) / d)
    return p, bound, p >= bound - 1e-9


# ---------------------------------------------------------------------------
# Rectangle tree


def rect_tree_boxes(lows, origins, n_cube: int, n_prev: int, level: int):
    """Node boxes at one level of the merged rectangle tree of every n_cube-cube.

    Cube i has low corner ``lows[i]`` and inherits the grid {origins[i] + k
    n_prev}. Per axis, the grid splits the cube into n_cube/n_prev + 1
    intervals (n_cube/n_prev when aligned); the two partial end intervals sum
    to n_prev, and the shorter one is merged into its neighbour. When that is
    the leading interval, the logical index runs backwards, so the merged
    interval still carries the last index (ties keep the forward
    orientation). A node at ``level`` spans 2^(h - level) consecutive logical
    intervals per axis, h = log2(n_cube / n_prev); level h holds the basic
    rectangles, level 0 the cube. Returns absolute (low, sides) arrays of
    shape (n * 2^(level d), d), cube by cube, row-major in the logical node
    index within a cube.
    """
    lows = np.asarray(lows, dtype=np.int64)
    origins = np.asarray(origins, dtype=np.int64)
    if n_cube & (n_cube - 1) or n_prev & (n_prev - 1) or not 1 <= n_prev < n_cube:
        raise ArgumentError("need powers of two n_prev < n_cube")
    k = int(n_cube) // int(n_prev)  # logical intervals per axis
    if not 0 <= level <= k.bit_length() - 1:
        raise ArgumentError("level outside the tree")
    if lows.ndim != 2 or lows.shape != origins.shape:
        raise ArgumentError("lows and origins must be equal (n, d) arrays")
    n, d = lows.shape
    first = (origins - lows) % n_prev  # length of the leading partial interval
    short_lead = 2 * first < n_prev
    # interval boundaries in spatial order, relative to the cube: 0, the
    # first grid line kept, every n_prev after it, n_cube
    bounds = np.where(short_lead, first + n_prev, first)[..., None] + n_prev * (
        np.arange(k + 1) - 1
    )
    bounds[..., 0], bounds[..., k] = 0, n_cube
    rev = short_lead & (first > 0)
    p = np.arange(1 << level)
    spatial = np.where(rev[..., None], (1 << level) - 1 - p, p)  # (n, d, 2^level)
    width = k >> level
    start = np.take_along_axis(bounds, spatial * width, axis=2)
    stop = np.take_along_axis(bounds, (spatial + 1) * width, axis=2)
    out_low = np.empty((n,) + (1 << level,) * d + (d,), dtype=np.int64)
    out_sides = np.empty_like(out_low)
    for j in range(d):
        shape = (n,) + tuple(1 << level if a == j else 1 for a in range(d))
        out_low[..., j] = (lows[:, j, None] + start[:, j]).reshape(shape)
        out_sides[..., j] = (stop - start)[:, j].reshape(shape)
    return out_low.reshape(-1, d), out_sides.reshape(-1, d)
