"""Uniformity audits: sliding binary-cube discrepancy, growth-exponent
profiles and summability of a deviation budget.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from eqdec.errors import ArgumentError
from eqdec.lattice import CellSet, Rect

__all__ = [
    "DiscrepancyProfile",
    "block_sums",
    "cube_discrepancy",
    "profile",
    "summability_report",
]


@dataclass(frozen=True)
class DiscrepancyProfile:
    scales: tuple  # 2^i
    max_dev: tuple
    fitted_exponent: float
    fit_range: tuple  # indices of i used in the fit
    delta: float

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["scale", "max_dev"])
        for s, m in zip(self.scales, self.max_dev):
            w.writerow([s, repr(m)])
        return buf.getvalue()


def block_sums(arr: np.ndarray, size: int) -> np.ndarray:
    """Sums over every axis-aligned size^d window (stride 1), via running sums."""
    out = np.ascontiguousarray(arr, dtype=np.int64)
    for ax in range(arr.ndim):
        pad_shape = list(out.shape)
        pad_shape[ax] = 1
        c = np.concatenate([np.zeros(pad_shape, dtype=np.int64), np.cumsum(out, axis=ax)], axis=ax)
        hi = [slice(None)] * arr.ndim
        lo = [slice(None)] * arr.ndim
        hi[ax] = slice(size, None)
        lo[ax] = slice(None, -size)
        out = c[tuple(hi)] - c[tuple(lo)]
    return out


def _window_bits(X: CellSet, window: Rect) -> np.ndarray:
    if not X.rect.contains_rect(window):
        raise ArgumentError("window must lie inside the cell set's bounding rect")
    return X.bits[window.slices_in(X.rect)]


def cube_discrepancy(X: CellSet, delta: float, i: int, window: Rect) -> float:
    """Max over all 2^i-cubes inside the window of | |X ∩ Q| - delta |Q| |."""
    size = 1 << i
    if size > min(window.sides):
        raise ArgumentError(f"scale 2^{i} exceeds window side {min(window.sides)}")
    bits = _window_bits(X, window)
    counts = block_sums(bits, size)
    target = delta * float(size ** window.d)
    return float(np.abs(counts - target).max())


def profile(X: CellSet, delta: float, window: Rect, i_max: int) -> DiscrepancyProfile:
    """Cube discrepancies for scales 2^0..2^i_max plus a fitted growth exponent.

    The fit is least squares on log2(max_dev) against i over i in [2, i_max];
    scales with zero deviation are left out of the fit.
    """
    if (1 << i_max) > min(window.sides):
        raise ArgumentError("window too small for the requested i_max")
    devs = [cube_discrepancy(X, delta, i, window) for i in range(i_max + 1)]
    lo = min(2, i_max)
    idx = [i for i in range(lo, i_max + 1) if devs[i] > 0]
    if len(idx) >= 2:
        xs = np.array(idx, dtype=np.float64)
        ys = np.log2([devs[i] for i in idx])
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = float("nan")
    return DiscrepancyProfile(
        scales=tuple(1 << i for i in range(i_max + 1)),
        max_dev=tuple(devs),
        fitted_exponent=slope,
        fit_range=tuple(idx),
        delta=delta,
    )


def summability_report(devs, d: int, horizon: int):
    """Partial sums of dev_i / 2^((d-1)i) over the scales 2^0..2^horizon,
    where ``devs[i]`` is the deviation at scale 2^i (``profile``'s
    ``max_dev``).

    With the per-scale budget psi_i = dev_i / 2^i and phi_i = 2^i psi_i, this
    is the series of phi_i / 2^((d-1)i), and term by term the series of
    psi_i / 2^((d-2)i) too. Returns (partials, tail_flag); the flag reports
    whether the last three terms decrease.
    """
    if horizon >= len(devs):
        raise ArgumentError("horizon exceeds tabulated scales")
    terms = [devs[i] / 2 ** ((d - 1) * i) for i in range(horizon + 1)]
    tail = len(terms) >= 4 and terms[-3] > terms[-2] > terms[-1]
    return tuple(np.cumsum(terms).tolist()), tail
