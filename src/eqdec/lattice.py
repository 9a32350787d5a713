"""Finite-window primitives on Z^d: rectangles, cell sets, dilation,
perimeters and the isoperimetric bound, and the merged binary rectangle tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.ndimage import maximum_filter

from eqdec.errors import ArgumentError

__all__ = [
    "Rect",
    "CellSet",
    "RectTree",
    "RectTreeNode",
    "perimeter",
    "internal_boundary",
    "isoperimetry_check",
    "build_rect_tree",
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

    def cells(self) -> np.ndarray:
        """All cells in row-major order, shape (volume, d)."""
        ax = [np.arange(l, l + s) for l, s in zip(self.low, self.sides)]
        grid = np.meshgrid(*ax, indexing="ij")
        return np.stack(grid, axis=-1).reshape(-1, self.d)


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


def dilate(bits: np.ndarray, m: int) -> np.ndarray:
    """Cells within sup-norm distance m of a true cell (no growth of the array)."""
    if m == 0:
        return bits.copy()
    return maximum_filter(bits.astype(np.uint8), size=2 * m + 1, mode="constant") > 0


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
    if not R.contains_rect(X.rect) and X.size() > 0:
        cells = X.cells()
        if not all(R.contains_cell(c) for c in cells):
            raise ArgumentError("X must be contained in R")
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


@dataclass(frozen=True)
class AxisPartition:
    """One axis of the merged grid: interval lengths in spatial order plus the
    logical orientation (reversed means logical index 0 sits at the high end)."""

    lengths: tuple
    reversed: bool
    low: int

    def spatial_start(self, spatial_idx: int) -> int:
        return self.low + int(sum(self.lengths[:spatial_idx]))

    def logical_range_to_span(self, lo: int, hi: int):
        """Spatial (start, length) of logical interval indices [lo, hi)."""
        n = len(self.lengths)
        if self.reversed:
            s_lo, s_hi = n - hi, n - lo
        else:
            s_lo, s_hi = lo, hi
        start = self.spatial_start(s_lo)
        length = int(sum(self.lengths[s_lo:s_hi]))
        return start, length


@dataclass(frozen=True)
class RectTreeNode:
    level: int
    index: tuple  # logical digit tuple, one entry in [0, 2^level) per axis
    rect: Rect
    special: bool


@dataclass(frozen=True)
class RectTree:
    root: Rect
    h: int
    axes: tuple  # AxisPartition per axis
    nodes: tuple  # RectTreeNode, levels 0..h, lexicographic within level

    def level_nodes(self, level: int):
        return [n for n in self.nodes if n.level == level]

    def basic_rects(self):
        return [n.rect for n in self.nodes if n.level == self.h]


def _axis_partition(low: int, side: int, origin: int, n_prev: int) -> AxisPartition:
    """Split [low, low+side) by the grid {origin + k*n_prev}, then merge the
    short end interval so exactly side/n_prev intervals remain."""
    first = (origin - low) % n_prev
    if first == 0:
        lengths = [n_prev] * (side // n_prev)
        return AxisPartition(tuple(lengths), False, low)
    lengths = [first] + [n_prev] * ((side - first) // n_prev)
    rem = side - sum(lengths)
    if rem:
        lengths.append(rem)
    # The two partial end intervals sum to n_prev. The shorter one is merged
    # into its neighbour; when that is the leading interval, the logical index
    # runs backwards so that the merged interval still carries the last index
    # (ties keep the forward orientation). Spatial positions never move.
    rev = lengths[-1] > lengths[0]
    if rev:
        lengths[1] += lengths[0]
        lengths.pop(0)
    else:
        lengths[-2] += lengths[-1]
        lengths.pop()
    return AxisPartition(tuple(lengths), rev, low)


def build_rect_tree(root: Rect, fine_grid_origin: Sequence[int], n_prev: int) -> RectTree:
    """Organize the inherited n_prev-grid inside an N-cube into the level
    hierarchy of merged rectangles, levels 0 (the cube) through h (basic).
    """
    sides = set(root.sides)
    if len(sides) != 1:
        raise ArgumentError("root must be a cube")
    n_cube = root.sides[0]
    if n_cube & (n_cube - 1) or n_prev & (n_prev - 1):
        raise ArgumentError("cube and grid sizes must be powers of 2")
    if not 1 <= n_prev < n_cube:
        raise ArgumentError("need n_prev < cube side")
    h = (n_cube // n_prev).bit_length() - 1
    origin = tuple(int(x) for x in fine_grid_origin)
    if len(origin) != root.d:
        raise ArgumentError("fine_grid_origin length mismatch")
    axes = tuple(
        _axis_partition(root.low[j], n_cube, origin[j], n_prev) for j in range(root.d)
    )
    nodes = []
    for level in range(h + 1):
        width = 1 << (h - level)  # logical intervals per node per axis
        nominal = n_cube >> level
        for index in np.ndindex(*(1 << level,) * root.d):
            lows, lens = [], []
            for j, p in enumerate(index):
                start, length = axes[j].logical_range_to_span(p * width, (p + 1) * width)
                lows.append(start)
                lens.append(length)
            rect = Rect(tuple(lows), tuple(lens))
            special = sum(1 for s in rect.sides if s != nominal) >= 2
            nodes.append(RectTreeNode(level, tuple(int(i) for i in index), rect, special))
    return RectTree(root=root, h=h, axes=axes, nodes=tuple(nodes))
